//! The one argument parser of `parlo-bench`: `argv` is parsed once, against the flag
//! list of the subcommand it names, into a typed [`Args`].  An unknown subcommand, a
//! flag the subcommand does not accept, a missing value and an unparsable value are
//! each an `Err` that names the offender and lists what is accepted; `main` prints it
//! and exits 2 before any pool is built, so a typo never costs a measurement.

use crate::{env_threads, hardware_threads, parse_threads_spec, sweep_roster, WorkloadKind};
use parlo_affinity::{parse_pin_policy, TopologySource};
use parlo_workloads::PlacementConfig;

/// Flags every subcommand accepts (tracing, worker placement, wait policy), written
/// as in a usage line: the flag, then the placeholder of its value if it takes one.
const COMMON: [&str; 4] = [
    "--trace PATH",
    "--topology detect|paper|SxC",
    "--pin compact|scatter|none",
    "--wait spin|spinyield|yield|park|auto",
];

/// The paper figure to draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subcommand {
    /// Table 1: fitted scheduler burdens.
    Table1,
    /// Figure 2: MPDATA speedup vs threads.
    Figure2,
    /// Figure 3: map-reduce reductions vs threads.
    Figure3,
    /// Raw granularity-sweep CSV.
    Sweep,
    /// Load-imbalanced and cache-hostile kernels.
    Irregular,
}

impl Subcommand {
    /// Every subcommand, in usage order.
    pub const ALL: [Subcommand; 5] = [
        Subcommand::Table1,
        Subcommand::Figure2,
        Subcommand::Figure3,
        Subcommand::Sweep,
        Subcommand::Irregular,
    ];

    /// The name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Subcommand::Table1 => "table1",
            Subcommand::Figure2 => "figure2",
            Subcommand::Figure3 => "figure3",
            Subcommand::Sweep => "sweep",
            Subcommand::Irregular => "irregular",
        }
    }

    /// The flags this subcommand accepts besides [`COMMON`], in the same notation.
    fn own_flags(self) -> &'static [&'static str] {
        const WORKLOAD: &str = "--workload micro|skewed|triangular|cache";
        match self {
            Subcommand::Table1 => &[
                "--simulate",
                "--no-simulate",
                "--threads N",
                "--reps N",
                "--quick",
                "--csv",
                "--json PATH",
                WORKLOAD,
                "--steal-local",
            ],
            Subcommand::Figure2 => &[
                "--simulate",
                "--steps N",
                "--max-threads N",
                "--quick",
                "--csv",
            ],
            Subcommand::Figure3 => &[
                "--simulate",
                "--points N",
                "--max-threads N",
                "--quick",
                "--csv",
            ],
            Subcommand::Sweep => &[
                "--threads N",
                "--reps N",
                "--quick",
                "--runtime NAME",
                WORKLOAD,
                "--steal-local",
                "--json PATH",
            ],
            Subcommand::Irregular => &[
                "--threads N",
                "--reps N",
                "--n ITERS",
                "--units U",
                "--csv",
                "--json PATH",
                "--steal-local",
            ],
        }
    }

    fn flags(self) -> impl Iterator<Item = &'static str> {
        self.own_flags().iter().chain(&COMMON).copied()
    }

    /// The usage line: every flag this subcommand accepts.
    pub fn usage(self) -> String {
        let flags: Vec<String> = self.flags().map(|f| format!("[{f}]")).collect();
        format!("usage: parlo-bench {} {}", self.name(), flags.join(" "))
    }
}

/// The parsed command line.  A flag the subcommand does not accept never reaches
/// here, so a field a subcommand does not read holds its default.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// `--simulate`: print only the cost-model prediction for the 48-core machine.
    pub simulate: bool,
    /// `--no-simulate`: skip the simulated table after the native one (`table1`).
    pub no_simulate: bool,
    /// `--quick`: reduced sweep / fewer steps / fewer points.
    pub quick: bool,
    /// `--csv`: CSV instead of aligned text.
    pub csv: bool,
    /// `--steal-local`: the base stealing entry uses the locality-aware sweep.
    pub steal_local: bool,
    /// `--threads N` (`None` when absent or `0`; see [`Args::thread_count`]).
    pub threads: Option<usize>,
    /// `--reps N`: timed repetitions per point.
    pub reps: Option<usize>,
    /// `--steps N`: MPDATA time steps per measurement (`figure2`).
    pub steps: Option<usize>,
    /// `--max-threads N`: cap of the native thread sweep (`figure2`, `figure3`).
    pub max_threads: Option<usize>,
    /// `--points N`: regression input size (`figure3`).
    pub points: Option<usize>,
    /// `--n ITERS`: outer-loop size (`irregular`).
    pub n: Option<usize>,
    /// `--units U`: work units per iteration (`irregular`).
    pub units: Option<usize>,
    /// `--json PATH`: where to write the machine-readable report.
    pub json: Option<String>,
    /// `--trace PATH`: where to write the Chrome trace-event timeline.
    pub trace: Option<String>,
    /// `--runtime NAME`: the one roster key to measure (`sweep`).
    pub runtime: Option<&'static str>,
    /// `--workload KIND`: the loop body (`table1`, `sweep`).
    pub workload: WorkloadKind,
    /// `--topology`, `--pin`: worker placement of every pool.
    pub placement: PlacementConfig,
    /// `--wait SPEC` (validated): `main` exports it as `PARLO_WAIT`, which every pool
    /// family consults, so one flag reaches every runtime a subcommand constructs.
    pub wait: Option<String>,
}

impl Args {
    /// The thread count to measure at: `--threads N` if given, then the
    /// `PARLO_THREADS` environment override, otherwise the hardware parallelism.
    /// `--threads 0` falls through to the next source exactly like `PARLO_THREADS=0`.
    pub fn thread_count(&self) -> usize {
        self.threads
            .or_else(env_threads)
            .unwrap_or_else(hardware_threads)
            .max(1)
    }
}

/// Parses `argv` (without the program name) into the subcommand and its [`Args`].
/// The error text is complete — offender first, accepted flags or subcommands on the
/// next line — and building it touches no pool.
pub fn parse(argv: &[String]) -> Result<(Subcommand, Args), String> {
    let sub = argv
        .first()
        .and_then(|name| Subcommand::ALL.into_iter().find(|s| s.name() == name))
        .ok_or_else(|| {
            let offender = match argv.first() {
                Some(name) => format!("unknown subcommand `{name}`"),
                None => "missing subcommand".to_string(),
            };
            let names = Subcommand::ALL.map(Subcommand::name).join("|");
            format!("{offender}\nusage: parlo-bench <{names}> [flags]")
        })?;
    let mut args = Args::default();
    let mut tokens = argv[1..].iter();
    while let Some(flag) = tokens.next() {
        let fail = |what: String| format!("{what}\n{}", sub.usage());
        let spec = sub
            .flags()
            .find(|spec| spec.split(' ').next() == Some(flag.as_str()))
            .ok_or_else(|| fail(format!("unknown flag `{flag}` for `{}`", sub.name())))?;
        let value = match spec.split(' ').nth(1) {
            None => "",
            Some(placeholder) => match tokens.next() {
                Some(value) if !value.starts_with("--") => value.as_str(),
                _ => return Err(fail(format!("`{flag}` requires a value ({placeholder})"))),
            },
        };
        let invalid = |why: String| fail(format!("invalid value `{value}` for `{flag}`: {why}"));
        let count = || {
            let parsed = value.trim().parse::<usize>();
            parsed.map(Some).map_err(|e| invalid(e.to_string()))
        };
        match flag.as_str() {
            "--simulate" => args.simulate = true,
            "--no-simulate" => args.no_simulate = true,
            "--quick" => args.quick = true,
            "--csv" => args.csv = true,
            "--steal-local" => args.steal_local = true,
            // `parse_threads_spec` is the single parse site of thread counts; of what
            // it rejects only `0`, the documented fall-through, is an integer.
            "--threads" => {
                args.threads = parse_threads_spec(value);
                if args.threads.is_none() {
                    count()?;
                }
            }
            "--reps" => args.reps = count()?,
            "--steps" => args.steps = count()?,
            "--max-threads" => args.max_threads = count()?,
            "--points" => args.points = count()?,
            "--n" => args.n = count()?,
            "--units" => args.units = count()?,
            "--json" => args.json = Some(value.to_string()),
            "--trace" => args.trace = Some(value.to_string()),
            "--runtime" => {
                let keys: Vec<&str> = sweep_roster().iter().map(|e| e.key).collect();
                let known = keys.iter().find(|key| **key == value).copied();
                args.runtime = Some(known.ok_or_else(|| invalid(format!("available: {keys:?}")))?);
            }
            "--workload" => args.workload = WorkloadKind::parse(value).map_err(invalid)?,
            "--topology" => {
                args.placement.source = TopologySource::parse(value).map_err(invalid)?
            }
            "--pin" => args.placement.pin = parse_pin_policy(value).map_err(invalid)?,
            "--wait" => {
                parlo_core::WaitPolicy::from_spec(value).map_err(invalid)?;
                args.wait = Some(value.to_string());
            }
            _ => unreachable!("`{flag}` is listed for a subcommand but not parsed"),
        }
    }
    Ok((sub, args))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_flag_a_subcommand_lists_is_parsed() {
        for sub in Subcommand::ALL {
            for spec in sub.flags() {
                let mut argv = vec![sub.name().to_string()];
                argv.extend(spec.split(' ').map(|part| match part {
                    "N" | "ITERS" | "U" => "3".to_string(),
                    "NAME" => "cilk".to_string(),
                    // Of `a|b|c` the last but one: never the default, always a literal.
                    word => word.rsplit('|').nth(1).unwrap_or(word).to_string(),
                }));
                let (parsed, args) = parse(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
                assert_eq!(parsed, sub);
                assert_ne!(args, Args::default(), "{argv:?} left no mark");
            }
        }
    }
}
