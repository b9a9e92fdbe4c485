//! OpenMP-style worksharing schedules.

/// The worksharing schedule of a parallel loop, mirroring OpenMP's `schedule` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// One contiguous block per thread (`schedule(static)`).
    #[default]
    Static,
    /// Block-cyclic with the given chunk size (`schedule(static, chunk)`).
    StaticChunked(usize),
    /// Threads repeatedly grab chunks of the given size from a shared counter
    /// (`schedule(dynamic, chunk)`).
    Dynamic(usize),
    /// Guided self-scheduling with the given minimum chunk size (`schedule(guided, chunk)`).
    Guided(usize),
}

impl Schedule {
    /// Short label used by the benchmark harnesses (matches the Table 1 row names).
    pub fn label(&self) -> &'static str {
        match self {
            Schedule::Static => "OpenMP static",
            Schedule::StaticChunked(_) => "OpenMP static (chunked)",
            Schedule::Dynamic(_) => "OpenMP dynamic",
            Schedule::Guided(_) => "OpenMP guided",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_default() {
        assert_eq!(Schedule::Static.label(), "OpenMP static");
        assert_eq!(Schedule::Dynamic(1).label(), "OpenMP dynamic");
        assert_eq!(Schedule::default(), Schedule::Static);
    }
}
