//! The unified stats surface: [`StatsSource`], [`CounterField`] and [`StatsRegistry`].
//!
//! Every crate in the workspace grew its own counter snapshot struct (`SyncStats`,
//! `StealStats`, `AdaptiveStats`, `ServeStats`, `ExecStats`), each
//! with a hand-rolled `since`/`merged` pair and no common way to dump "everything the
//! system knows" in one place.  This module is the one shape they all share:
//!
//! * [`CounterField`] — per-field arithmetic (`since` subtraction, `merged` addition)
//!   and flattening to `(name, u64)` samples, implemented for the three field types
//!   the families use (`u64`, `usize`, `Vec<u64>`).
//! * [`stats_family!`](crate::stats_family) — declares a snapshot struct and derives
//!   `since`, `merged` and a [`StatsSource`] impl from its field list, replacing the
//!   per-crate copies.
//! * [`StatsSource`] — the object-safe "give me your samples" trait.
//! * [`StatsRegistry`] — a list of live sources (closures re-snapshotting on demand)
//!   rendered as a text metrics page, e.g. by `parlo_serve::Server::metrics_text`.

/// One field of a stats family: knows how to subtract, add and flatten itself.
///
/// Implemented for `u64` and `usize` (plain counters/gauges) and `Vec<u64>`
/// (per-worker counter arrays; `since` subtracts index-wise over the common prefix,
/// `merged` adds index-wise padding the shorter side with zeros, and sampling emits
/// one `name[i]` entry per element).
pub trait CounterField: Sized {
    /// `self − earlier`, field-wise (`self` snapshotted after `earlier`).
    fn field_since(&self, earlier: &Self) -> Self;
    /// `self + other`, field-wise.
    fn field_merged(&self, other: &Self) -> Self;
    /// Appends this field's `(name, value)` samples to `out`.
    fn sample_into(&self, name: &str, out: &mut Vec<(String, u64)>);
}

impl CounterField for u64 {
    fn field_since(&self, earlier: &Self) -> Self {
        self - earlier
    }

    fn field_merged(&self, other: &Self) -> Self {
        self + other
    }

    fn sample_into(&self, name: &str, out: &mut Vec<(String, u64)>) {
        out.push((name.to_string(), *self));
    }
}

impl CounterField for usize {
    fn field_since(&self, earlier: &Self) -> Self {
        self - earlier
    }

    fn field_merged(&self, other: &Self) -> Self {
        self + other
    }

    fn sample_into(&self, name: &str, out: &mut Vec<(String, u64)>) {
        out.push((name.to_string(), *self as u64));
    }
}

impl CounterField for Vec<u64> {
    fn field_since(&self, earlier: &Self) -> Self {
        self.iter().zip(earlier).map(|(a, b)| a - b).collect()
    }

    fn field_merged(&self, other: &Self) -> Self {
        let n = self.len().max(other.len());
        (0..n)
            .map(|i| self.get(i).copied().unwrap_or(0) + other.get(i).copied().unwrap_or(0))
            .collect()
    }

    fn sample_into(&self, name: &str, out: &mut Vec<(String, u64)>) {
        for (i, v) in self.iter().enumerate() {
            out.push((format!("{name}[{i}]"), *v));
        }
    }
}

/// An object-safe view of one stats family as a flat list of named `u64` samples.
///
/// Implemented by every snapshot struct declared with
/// [`stats_family!`](crate::stats_family), and by hand for shapes the macro cannot
/// express (e.g. `parlo_exec::ExecStats`, whose impl lives in this crate).
pub trait StatsSource {
    /// The family name, used as the sample-name prefix (e.g. `"sync"`, `"steal"`).
    fn family(&self) -> &'static str;

    /// The family's counters flattened to `(name, value)` pairs, in declaration
    /// order.
    fn samples(&self) -> Vec<(String, u64)>;

    /// Renders the family as text, one `family.name value` line per sample.
    fn render_text(&self) -> String {
        let fam = self.family();
        let mut out = String::new();
        for (name, value) in self.samples() {
            out.push_str(fam);
            out.push('.');
            out.push_str(&name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out
    }
}

/// `ExecStats` mixes counters with labels and a pin map, so the numeric view is
/// hand-picked rather than macro-derived: live workers/leases/active-partition
/// gauges, the switch counter, and how many workers the pin policy actually placed.
impl StatsSource for parlo_exec::ExecStats {
    fn family(&self) -> &'static str {
        "exec"
    }

    fn samples(&self) -> Vec<(String, u64)> {
        vec![
            ("workers".to_string(), self.workers as u64),
            ("leases".to_string(), self.leases as u64),
            ("active".to_string(), self.active.len() as u64),
            ("switches".to_string(), self.switches),
            (
                "pinned_workers".to_string(),
                self.pin_map.iter().flatten().count() as u64,
            ),
        ]
    }
}

type SourceFn = Box<dyn Fn() -> Vec<(String, u64)> + Send + Sync>;

/// A registry of live stats sources.
///
/// Each entry is a label plus a closure producing a fresh snapshot; rendering
/// re-snapshots every source, so one registry built at startup keeps serving
/// current numbers.  The label overrides the source's own
/// [`family`](StatsSource::family) prefix so two instances of the same family
/// (e.g. per-gang pools) can coexist.
#[derive(Default)]
pub struct StatsRegistry {
    sources: Vec<(String, SourceFn)>,
}

impl std::fmt::Debug for StatsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsRegistry")
            .field(
                "sources",
                &self.sources.iter().map(|(l, _)| l).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl StatsRegistry {
    /// Creates an empty registry.
    pub fn new() -> StatsRegistry {
        StatsRegistry::default()
    }

    /// Registers a source under `label`; `snapshot` is called on every render.
    pub fn register<S, F>(&mut self, label: impl Into<String>, snapshot: F)
    where
        S: StatsSource,
        F: Fn() -> S + Send + Sync + 'static,
    {
        self.sources
            .push((label.into(), Box::new(move || snapshot().samples())));
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the registry has no sources.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Re-snapshots every source and renders one `label.name value` line per
    /// sample, in registration order.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (label, snapshot) in &self.sources {
            for (name, value) in snapshot() {
                out.push_str(label);
                out.push('.');
                out.push_str(&name);
                out.push(' ');
                out.push_str(&value.to_string());
                out.push('\n');
            }
        }
        out
    }
}

/// Declares a stats-snapshot struct and derives its whole observability surface:
/// `since` (field-wise subtraction), `merged` (field-wise addition) and a
/// [`StatsSource`] impl flattening the fields to named samples, all driven by
/// [`CounterField`].  Field types must implement [`CounterField`]
/// (`u64`, `usize`, `Vec<u64>`).
///
/// ```
/// parlo_core::stats_family! {
///     /// Example family.
///     #[derive(Debug, Clone, Default, PartialEq, Eq)]
///     pub struct DemoStats: "demo" {
///         /// Things done.
///         pub done: u64,
///         /// Things pending.
///         pub pending: usize,
///     }
/// }
/// let a = DemoStats { done: 3, pending: 1 };
/// let b = DemoStats { done: 1, pending: 1 };
/// assert_eq!(a.since(&b).done, 2);
/// assert_eq!(a.merged(&b).done, 4);
/// use parlo_core::StatsSource;
/// assert_eq!(a.render_text(), "demo.done 3\ndemo.pending 1\n");
/// ```
#[macro_export]
macro_rules! stats_family {
    (
        $(#[$meta:meta])*
        pub struct $name:ident : $family:literal {
            $( $(#[$fmeta:meta])* pub $field:ident : $ty:ty ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )+
        }

        impl $name {
            /// Difference between two snapshots (`self` taken after `earlier`),
            /// field-wise; per-worker arrays subtract over the common prefix.
            pub fn since(&self, earlier: &$name) -> $name {
                $name {
                    $( $field: $crate::CounterField::field_since(
                        &self.$field,
                        &earlier.$field,
                    ), )+
                }
            }

            /// Field-wise sum of two snapshots (used by composite runtimes that
            /// own several backends); per-worker arrays pad with zeros.
            pub fn merged(&self, other: &$name) -> $name {
                $name {
                    $( $field: $crate::CounterField::field_merged(
                        &self.$field,
                        &other.$field,
                    ), )+
                }
            }
        }

        impl $crate::StatsSource for $name {
            fn family(&self) -> &'static str {
                $family
            }

            fn samples(&self) -> ::std::vec::Vec<(::std::string::String, u64)> {
                let mut out = ::std::vec::Vec::new();
                $( $crate::CounterField::sample_into(
                    &self.$field,
                    stringify!($field),
                    &mut out,
                ); )+
                out
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    stats_family! {
        /// Test family exercising all three field types.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct MixedStats: "mixed" {
            /// A plain counter.
            pub hits: u64,
            /// A gauge.
            pub depth: usize,
            /// A per-worker array.
            pub per_worker: Vec<u64>,
        }
    }

    #[test]
    fn since_and_merged_are_field_wise() {
        let a = MixedStats {
            hits: 10,
            depth: 4,
            per_worker: vec![5, 7],
        };
        let b = MixedStats {
            hits: 4,
            depth: 1,
            per_worker: vec![2, 3],
        };
        let d = a.since(&b);
        assert_eq!(d.hits, 6);
        assert_eq!(d.depth, 3);
        assert_eq!(d.per_worker, vec![3, 4]);
        let m = a.merged(&b);
        assert_eq!(m.hits, 14);
        assert_eq!(m.per_worker, vec![7, 10]);
    }

    #[test]
    fn merged_pads_vectors_with_zeros() {
        let a = MixedStats {
            per_worker: vec![1, 2, 3],
            ..MixedStats::default()
        };
        let b = MixedStats {
            per_worker: vec![10],
            ..MixedStats::default()
        };
        assert_eq!(a.merged(&b).per_worker, vec![11, 2, 3]);
        assert_eq!(b.merged(&a).per_worker, vec![11, 2, 3]);
    }

    #[test]
    fn samples_flatten_in_declaration_order() {
        let a = MixedStats {
            hits: 2,
            depth: 9,
            per_worker: vec![1, 0],
        };
        assert_eq!(
            a.samples(),
            vec![
                ("hits".to_string(), 2),
                ("depth".to_string(), 9),
                ("per_worker[0]".to_string(), 1),
                ("per_worker[1]".to_string(), 0),
            ]
        );
        assert_eq!(
            a.render_text(),
            "mixed.hits 2\nmixed.depth 9\nmixed.per_worker[0] 1\nmixed.per_worker[1] 0\n"
        );
    }

    #[test]
    fn registry_re_snapshots_on_render() {
        use parlo_sync::{AtomicU64, Ordering};
        use std::sync::Arc;
        let live = Arc::new(AtomicU64::new(1));
        let mut reg = StatsRegistry::new();
        let src = Arc::clone(&live);
        reg.register("fam", move || MixedStats {
            hits: src.load(Ordering::Relaxed),
            depth: 0,
            per_worker: Vec::new(),
        });
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
        assert!(reg.render_text().contains("fam.hits 1"));
        live.store(7, Ordering::Relaxed);
        assert!(reg.render_text().contains("fam.hits 7"));
    }

    #[test]
    fn exec_stats_expose_numeric_view() {
        let e = parlo_exec::ExecStats {
            workers: 3,
            leases: 2,
            active: vec!["a".into(), "b".into()],
            switches: 11,
            pin_map: vec![Some(1), None, Some(3)],
        };
        let text = e.render_text();
        assert!(text.contains("exec.workers 3"));
        assert!(text.contains("exec.active 2"));
        assert!(text.contains("exec.switches 11"));
        assert!(text.contains("exec.pinned_workers 2"));
    }
}
