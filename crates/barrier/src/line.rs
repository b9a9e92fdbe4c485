//! The release line: an epoch word and the payload it publishes, on one padded line.
//!
//! A worker waiting to be released spins on a line the releaser writes exactly once per
//! epoch.  Whatever else the worker must read before it can start — in the loop runtimes,
//! the loop's job — costs one more line transfer if it lives anywhere else, and the
//! transfers are dependent: the worker learns where to look only after the release.
//! So every release line carries a [`Payload`] next to its epoch, filling the rest of
//! the 128-byte line: the releaser writes the payload and then stores the epoch with
//! `Release`; a waiter that observes the epoch with `Acquire` reads the payload from
//! the line it just pulled in.

use crate::Epoch;
use parlo_sync::{AtomicU64, Ordering, UnsafeCell};
use std::mem::MaybeUninit;

/// Words a release carries besides its epoch: an epoch word plus these fill one
/// 128-byte line.
pub const PAYLOAD_WORDS: usize = 15;

/// What a release hands every worker it releases.  The words are `MaybeUninit` because
/// a payload is any `Copy` value's bytes, padding included; the barrier only moves
/// them.
pub type Payload = [MaybeUninit<u64>; PAYLOAD_WORDS];

/// The payload of a release whose waiters read nothing from it (a full barrier's
/// closing episode, the barrier tests).
pub const EMPTY_PAYLOAD: Payload = [MaybeUninit::uninit(); PAYLOAD_WORDS];

/// One release line: the epoch a waiter spins on and the payload published with it.
/// Every release line of the crate — a tree member's, a socket's, the centralized
/// word — is one of these behind a `CachePadded`, which makes it exactly one 128-byte
/// line on x86-64.
#[derive(Debug)]
pub(crate) struct ReleaseLine {
    epoch: AtomicU64,
    payload: UnsafeCell<Payload>,
}

impl ReleaseLine {
    /// A line at epoch 0, holding no payload.
    pub(crate) fn new() -> Self {
        ReleaseLine {
            epoch: AtomicU64::new(0),
            payload: UnsafeCell::new(EMPTY_PAYLOAD),
        }
    }

    /// Publishes `payload` under `epoch`: the payload first, then the epoch with
    /// `Release`, so a waiter that observes the epoch reads this payload.
    ///
    /// The caller's protocol guarantees nobody reads the payload meanwhile: every
    /// waiter released under the previous epoch read it before arriving, and the
    /// releaser of the next epoch runs only after those arrivals.
    #[inline]
    pub(crate) fn publish(&self, epoch: Epoch, payload: &Payload) {
        // SAFETY: no reader of the previous epoch is left (see above), and readers of
        // this one wait for the store below.
        self.payload.with_mut(|p| unsafe { *p = *payload });
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Whether `epoch` (or a later one) has been published.
    #[inline]
    pub(crate) fn is_released(&self, epoch: Epoch) -> bool {
        self.epoch.load(Ordering::Acquire) >= epoch
    }

    /// The payload published with the epoch this thread observed through
    /// [`ReleaseLine::is_released`]; the next publish waits for this thread's arrival.
    #[inline]
    pub(crate) fn payload(&self) -> Payload {
        // SAFETY: the observing `Acquire` load ordered the publisher's write before this
        // read, and the next write waits for this participant's arrival.
        self.payload.with(|p| unsafe { *p })
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
