//! Harness-side spans: one around every call the harness makes into a layer of the
//! program, kept in memory and written out as a Chrome trace when the run ends.
//!
//! A span is `(name, start, end, parent, op)`.  A layer's *self time* is its spans'
//! duration minus the part their child spans cover.  Spans inside the program are
//! `parlo-trace`'s business; these only see the calls from outside.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `core.parallel_sum`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// The op (or request) the span belongs to.
    pub op: u64,
}

/// Handle returned by [`Recorder::begin`]; hand it back to [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// The in-memory span store.  Disabled, every call is one predictable branch.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    current: u32,
    enabled: bool,
    /// Spans not stored because the store was full.
    pub dropped: u64,
}

impl Recorder {
    /// A recorder that never records (the `--trace 0` run).
    pub fn disabled() -> Self {
        Self::with_capacity(0)
    }

    /// A recorder with room for `capacity` spans, allocated up front so recording
    /// never allocates.  It starts disabled.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            current: NO_PARENT,
            enabled: false,
            dropped: 0,
        }
    }

    /// Turns recording on or off (only between spans).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert_eq!(self.current, NO_PARENT, "toggled inside an open span");
        self.enabled = on && self.spans.capacity() > 0;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return Open(NO_PARENT);
        }
        let start_ns = self.now_ns();
        self.open_at(name, op, start_ns)
    }

    fn open_at(&mut self, name: &'static str, op: u64, start_ns: u64) -> Open {
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.current,
            op,
        });
        self.current = index;
        Open(index)
    }

    /// Closes a span opened by [`Recorder::begin`].
    #[inline]
    pub fn end(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        self.close_at(open, end_ns);
    }

    fn close_at(&mut self, open: Open, end_ns: u64) {
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end_ns;
        self.current = span.parent;
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total self ns)`, self time being the span minus the
    /// part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Writes the first `limit` spans as Chrome trace events (`chrome://tracing`,
    /// Perfetto): complete events on one track, `args` carrying op and parent.
    pub fn write_chrome_trace(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                },
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::with_capacity(8);
        r.set_enabled(true);
        let op = r.open_at("harness.op", 7, 0);
        let a = r.open_at("core.parallel_sum", 7, 10);
        r.close_at(a, 40);
        let b = r.open_at("core.parallel_sum", 7, 50);
        let inner = r.open_at("barrier.cycle", 7, 55);
        r.close_at(inner, 60);
        r.close_at(b, 70);
        r.close_at(op, 100);
        let spans = r.spans();
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[3].parent, 2);
        assert_eq!(spans[0].parent, NO_PARENT);
        let st = r.self_times();
        assert_eq!(st["harness.op"], (1, 100 - 30 - 20));
        assert_eq!(st["core.parallel_sum"], (2, 30 + 20 - 5));
        assert_eq!(st["barrier.cycle"], (1, 5));
    }

    #[test]
    fn disabled_or_full_recorders_store_nothing() {
        let mut off = Recorder::disabled();
        off.set_enabled(true);
        let t = off.begin("x", 0);
        off.end(t);
        assert!(off.spans().is_empty());

        let mut tiny = Recorder::with_capacity(1);
        tiny.set_enabled(true);
        let a = tiny.begin("a", 0);
        let b = tiny.begin("b", 0);
        tiny.end(b);
        tiny.end(a);
        assert_eq!(tiny.spans().len(), 1);
        assert_eq!(tiny.dropped, 1);
        assert_eq!(tiny.spans()[0].name, "a");
    }

    #[test]
    fn chrome_trace_is_json() {
        let mut r = Recorder::with_capacity(4);
        r.set_enabled(true);
        let a = r.open_at("serve.submit", 3, 1_000);
        r.close_at(a, 2_500);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-span-{}.json", std::process::id()));
        r.write_chrome_trace(&path, 10).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let v: serde::Value = serde_json::from_str(&text).unwrap();
        let events = serde::map_get(v.as_map().unwrap(), "traceEvents")
            .and_then(|e| e.as_seq())
            .unwrap();
        assert_eq!(events.len(), 1);
        let e = events[0].as_map().unwrap();
        assert_eq!(
            serde::map_get(e, "name").and_then(|n| n.as_str()),
            Some("serve.submit")
        );
        assert_eq!(serde::map_get(e, "dur"), Some(&serde::Value::F64(1.5)));
    }
}
