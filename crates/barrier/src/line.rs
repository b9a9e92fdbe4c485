//! The signal line: an epoch word and the payload it publishes, on one padded line.
//!
//! A waiter spins on a line its signaller writes exactly once per epoch.  Whatever else
//! the waiter must read once the epoch is seen costs one more line transfer if it lives
//! anywhere else, and the transfers are dependent: the waiter learns where to look
//! only after the signal.  So every flag of the crate — in both directions — is a
//! [`SignalLine`]: the epoch and a [`Payload`] filling the rest of the 128-byte line.
//!
//! * **Release.**  The releaser writes the payload (in the loop runtimes, the loop's
//!   job) and then stores the epoch with `Release`; a worker that observes the epoch
//!   with `Acquire` reads its job from the line it just pulled in.
//! * **Arrival.**  A participant of a merged reduction arrives with its folded
//!   accumulator as the payload; its join parent reads it from the line whose
//!   `Acquire` load told it the child had arrived.  A plain loop's participant stores
//!   the epoch alone ([`SignalLine::signal`]) and copies nothing.

use crate::{Epoch, WaitPolicy};
use crossbeam::utils::CachePadded;
use parlo_sync::{AtomicU64, Ordering, UnsafeCell};
use std::mem::MaybeUninit;

/// Words a signal carries besides its epoch: an epoch word plus these fill one 128-byte
/// line.
pub const PAYLOAD_WORDS: usize = 15;

/// What a signal hands its waiter.  The words are `MaybeUninit` because a payload is
/// any value's bytes, padding included; the barrier only moves them.
pub type Payload = [MaybeUninit<u64>; PAYLOAD_WORDS];

/// The payload of a signal whose waiters read nothing from it (a full barrier's
/// closing episode, the barrier tests).
pub const EMPTY_PAYLOAD: Payload = [MaybeUninit::uninit(); PAYLOAD_WORDS];

/// One signal line: the epoch a waiter spins on and the payload published with it.
/// Every flag of the crate — a tree member's release and arrival lines, a socket's,
/// the centralized release word — is one of these behind a `CachePadded`, which makes
/// it exactly one 128-byte line on x86-64.
#[derive(Debug)]
pub(crate) struct SignalLine {
    epoch: AtomicU64,
    payload: UnsafeCell<Payload>,
}

/// `n` padded signal lines at epoch 0.
pub(crate) fn lines(n: usize) -> Vec<CachePadded<SignalLine>> {
    (0..n)
        .map(|_| CachePadded::new(SignalLine::new()))
        .collect()
}

impl SignalLine {
    /// A line at epoch 0, holding no payload.
    pub(crate) fn new() -> Self {
        SignalLine {
            epoch: AtomicU64::new(0),
            payload: UnsafeCell::new(EMPTY_PAYLOAD),
        }
    }

    /// Publishes `payload` under `epoch`: the payload first, then the epoch with
    /// `Release`, so a waiter that observes the epoch reads this payload.
    ///
    /// The caller's protocol guarantees nobody reads the payload meanwhile: the waiter
    /// of the previous epoch read it before the signaller could run its next loop (a
    /// released worker reads its job before it arrives; a join parent reads a child's
    /// accumulator before its own join completes, and the master releases the next loop
    /// only after that).
    #[inline]
    pub(crate) fn publish(&self, epoch: Epoch, payload: &Payload) {
        // SAFETY: no reader of the previous epoch is left (see above), and readers of
        // this one wait for the store below.
        self.payload.with_mut(|p| unsafe { *p = *payload });
        self.signal(epoch);
    }

    /// Stores `epoch` alone with `Release`: a signal whose waiter reads no payload.
    #[inline]
    pub(crate) fn signal(&self, epoch: Epoch) {
        self.epoch.store(epoch, Ordering::Release);
    }

    /// An arrival for `epoch`: [`publish`](SignalLine::publish)es the participant's
    /// accumulator if it has one, [`signal`](SignalLine::signal)s the epoch alone if
    /// not.
    #[inline]
    pub(crate) fn arrive(&self, epoch: Epoch, payload: Option<&Payload>) {
        match payload {
            Some(payload) => self.publish(epoch, payload),
            None => self.signal(epoch),
        }
    }

    /// Whether `epoch` (or a later one) has been signalled.
    #[inline]
    pub(crate) fn reached(&self, epoch: Epoch) -> bool {
        self.epoch.load(Ordering::Acquire) >= epoch
    }

    /// Runs `f` on the payload published with the epoch this thread observed through
    /// [`SignalLine::reached`], in place.
    #[inline]
    pub(crate) fn read<R>(&self, f: impl FnOnce(&Payload) -> R) -> R {
        // SAFETY: the observing `Acquire` load ordered the publisher's write before this
        // read, and the next write waits for this thread to be done with it (see
        // `publish`).
        self.payload.with(|p| f(unsafe { &*p }))
    }

    /// A copy of the payload [`SignalLine::read`] would show.
    #[inline]
    pub(crate) fn payload(&self) -> Payload {
        self.read(|p| *p)
    }
}

/// A participant's side of a join: its accumulator, if the loop has one, and how a
/// child's arrival payload folds into it.
pub(crate) struct Gather<'a, F> {
    pub(crate) acc: Option<&'a mut Payload>,
    pub(crate) on_child: F,
}

impl<F: FnMut(&mut Payload, usize, &Payload)> Gather<'_, F> {
    /// Waits for participant `child` to arrive for `epoch` on `line`, then folds the
    /// payload it arrived with, read from that line.
    #[inline]
    pub(crate) fn child(
        &mut self,
        line: &SignalLine,
        child: usize,
        epoch: Epoch,
        policy: &WaitPolicy,
    ) {
        policy.wait_until(|| line.reached(epoch));
        if let Some(acc) = self.acc.as_deref_mut() {
            line.read(|payload| (self.on_child)(acc, child, payload));
        }
    }
}

/// A test payload whose every word is `x`.
#[cfg(test)]
pub(crate) fn filled(x: u64) -> Payload {
    [MaybeUninit::new(x); PAYLOAD_WORDS]
}

/// The word every word of a [`filled`] payload holds.
#[cfg(test)]
pub(crate) fn fill_of(payload: Payload) -> u64 {
    // SAFETY: the tests read back only payloads built by `filled`.
    let words: Vec<u64> = payload.iter().map(|w| unsafe { w.assume_init() }).collect();
    assert!(words.iter().all(|&w| w == words[0]), "a torn payload");
    words[0]
}
