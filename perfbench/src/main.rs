//! End-to-end and per-layer benchmark of the ShadowDP pipeline and its
//! verification daemon.
//!
//! ```text
//! perfbench --workload <table1-cold|table1-warm|daemon-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--daemon <path to shadowdpd>]
//! ```
//!
//! Every workload sets up, measures whole passes for `--seconds`, checks
//! every output, and prints as its last line one JSON object with the
//! operations attempted and failed and the metrics: the end-to-end ones
//! with `--trace 0`, the per-layer ones with `--trace 1`. An end-to-end
//! run spreads its time over [`PROCESSES`] processes of this binary
//! (`--part <k>`) and pools their passes; a traced run is one process.
//! Every time is reported at nominal machine speed (see [`kernel`]).
//! Exits non-zero if any check failed. See `README.md` for the workloads
//! and metrics.

mod daemon;
mod inproc;
mod kernel;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use shadowdp::{CorpusOutcome, Expected, PipelineError};
use shadowdp_verify::Verdict;

use crate::kernel::Kernel;
use crate::stats::{median, quantile, Failure, Speed, Tally};

/// Processes one end-to-end run pools. A process's speed depends on its
/// memory layout: the normalized pass medians of eight identical
/// table1-warm processes spread 11 % (quartile distance over median),
/// where 10 s windows inside one process spread 3 %. So an end-to-end run
/// measures `PROCESSES` processes one after another, each with its own
/// set-up and calibration, and pools their passes.
const PROCESSES: usize = 5;

/// Fewest timed passes per process: a pooled run has at least 100, so
/// that ten lie beyond its 90th percentile.
const MIN_PASSES: usize = 100 / PROCESSES;

/// A process stops measuring after this long even if it has fewer passes.
const MAX_MEASURE: Duration = Duration::from_secs(20);

/// How often the calibration kernel runs between passes.
const KERNEL_EVERY: Duration = Duration::from_millis(100);

/// Worker threads of `verify_corpus_parallel` and of the daemon.
pub const THREADS: usize = 2;

/// The per-layer metrics, with their units, in output order.
const PER_LAYER: [(&str, &str); 28] = [
    ("syntax.parse_us", "us"),
    ("analysis.lint_us", "us"),
    ("typing.check_us", "us"),
    ("typing.solver_queries", "count"),
    ("verify.lower_us", "us"),
    ("verify.houdini_us", "us"),
    ("verify.houdini_rounds", "count"),
    ("verify.bmc_us", "us"),
    ("solver.query_us", "us"),
    ("solver.queries", "count"),
    ("solver.memo_hit_ratio", "ratio"),
    ("solver.assumption_hit_ratio", "ratio"),
    ("solver.theory_calls", "count"),
    ("solver.trail_ops", "count"),
    ("solver.saturation_reuse_ratio", "ratio"),
    ("core.worker_busy_ratio", "ratio"),
    ("core.longest_job_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.result_wait_ms", "ms"),
    ("service.batches", "count"),
    ("service.batch_jobs", "count"),
    ("service.store_hit_ratio", "ratio"),
    ("service.flush_us", "us"),
    ("service.store_bytes", "bytes"),
    ("service.evictions", "count"),
    ("service.cold_fill_ms", "ms"),
    ("trace.coverage_ratio", "ratio"),
    ("obs.armed_overhead_ratio", "ratio"),
];

/// One per-layer figure as measured; times are normalized on output.
pub struct Layer {
    name: &'static str,
    value: f64,
    is_time: bool,
}

impl Layer {
    /// A time, scaled to nominal machine speed on output.
    pub fn time(name: &'static str, value: f64) -> Layer {
        Layer {
            name,
            value,
            is_time: true,
        }
    }

    /// A count or ratio, reported as measured.
    pub fn count(name: &'static str, value: f64) -> Layer {
        Layer {
            name,
            value,
            is_time: false,
        }
    }
}

/// The command line.
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The `shadowdpd` binary, for `daemon-mixed`.
    pub daemon: Option<PathBuf>,
    /// Which process of a pooled end-to-end run this is.
    pub part: Option<u64>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            daemon: None,
            part: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => args.workload.clone_from(&value),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => args.trace = value == "1",
                "--daemon" => args.daemon = Some(PathBuf::from(value)),
                "--part" => args.part = Some(value.parse().map_err(|_| bad())?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }
}

/// What a workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Timed pass lengths in seconds.
    pub pass_s: Vec<f64>,
    /// Verification jobs completed over the timed passes.
    pub jobs: u64,
    /// Length of the set-up in seconds.
    pub setup_s: f64,
    /// Peak RSS of the verifying process in MB.
    pub rss_mb: f64,
    /// Per-layer figures (traced runs only).
    pub layers: Vec<Layer>,
}

/// Runs `pass` until `seconds` have passed and at least [`MIN_PASSES`]
/// passes ran (or [`MAX_MEASURE`] ran out, or `pass` returned `false`),
/// sampling the calibration kernel between passes.
pub fn timed_loop(seconds: f64, kernel: &mut Kernel, mut pass: impl FnMut(usize) -> bool) {
    let start = Instant::now();
    let mut last_kernel: Option<Instant> = None;
    let mut n = 0;
    loop {
        if last_kernel.is_none_or(|t| t.elapsed() >= KERNEL_EVERY) {
            kernel.sample();
            last_kernel = Some(Instant::now());
        }
        if !pass(n) {
            break;
        }
        n += 1;
        let elapsed = start.elapsed();
        if (elapsed.as_secs_f64() >= seconds && n >= MIN_PASSES) || elapsed >= MAX_MEASURE {
            break;
        }
    }
    kernel.sample();
}

/// Checks one in-process job against its expected verdict and the digest
/// of a reference run.
pub fn check_report(
    outcome: &CorpusOutcome,
    slot: usize,
    expect: Expected,
    reference: &str,
) -> Option<Failure> {
    let verdict_ok = match (&outcome.reports[slot], expect) {
        (Err(PipelineError::Crashed(_)), _) => return Some(Failure::Crashed),
        (Err(PipelineError::Type(_)), Expected::TypeError) => true,
        (Err(_), _) => return Some(Failure::PipelineError),
        (Ok(r), Expected::Proved) => matches!(r.verdict, Verdict::Proved),
        (Ok(r), Expected::Refuted) => {
            matches!(&r.verdict, Verdict::Refuted(cex) if !cex.witness.is_empty())
        }
        (Ok(_), Expected::TypeError) => false,
    };
    if !verdict_ok {
        Some(Failure::WrongVerdict)
    } else if outcome.report_digest(slot) != reference {
        Some(Failure::DigestMismatch)
    } else {
        None
    }
}

/// `core.*` figures of one corpus pass: summed job time over worker time,
/// and the slowest job in seconds.
pub fn core_figures(outcome: &CorpusOutcome) -> (f64, f64) {
    let jobs: Vec<f64> = outcome
        .reports
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|r| (r.typecheck_time + r.verify_time).as_secs_f64())
        .collect();
    let busy = jobs.iter().sum::<f64>() / (outcome.threads as f64 * outcome.wall.as_secs_f64());
    (busy, jobs.iter().copied().fold(0.0, f64::max))
}

/// `core.*` metrics: medians over passes of [`core_figures`].
pub fn core_metrics(figures: &[(f64, f64)]) -> Vec<Layer> {
    let busy: Vec<f64> = figures.iter().map(|f| f.0).collect();
    let longest: Vec<f64> = figures.iter().map(|f| f.1 * 1e3).collect();
    vec![
        Layer::count("core.worker_busy_ratio", median(&busy)),
        Layer::time("core.longest_job_ms", median(&longest)),
    ]
}

/// `VmHWM` of process `pid` (`"self"` for this one) in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// One process's share of an end-to-end run, as it travels from the
/// process to the pooling parent: one line of `key=value` fields.
struct Part {
    tally: Tally,
    jobs: u64,
    rss_mb: f64,
    setup_s: f64,
    kernel_us: f64,
    speed: f64,
    pass_s: Vec<f64>,
}

impl Part {
    fn render(&self) -> String {
        let passes: Vec<String> = self.pass_s.iter().map(f64::to_string).collect();
        format!(
            "part tally={} jobs={} rss_mb={} setup_s={} kernel_us={} speed={} pass_s={}",
            self.tally.encode(),
            self.jobs,
            self.rss_mb,
            self.setup_s,
            self.kernel_us,
            self.speed,
            passes.join(",")
        )
    }

    fn parse(line: &str) -> Option<Part> {
        let mut fields = line
            .strip_prefix("part ")?
            .split(' ')
            .map(|f| f.split_once('='));
        let mut next = |key: &str| match fields.next() {
            Some(Some((k, v))) if k == key => Some(v),
            _ => None,
        };
        Some(Part {
            tally: Tally::decode(next("tally")?)?,
            jobs: next("jobs")?.parse().ok()?,
            rss_mb: next("rss_mb")?.parse().ok()?,
            setup_s: next("setup_s")?.parse().ok()?,
            kernel_us: next("kernel_us")?.parse().ok()?,
            speed: next("speed")?.parse().ok()?,
            pass_s: next("pass_s")?
                .split(',')
                .map(str::parse)
                .collect::<Result<_, _>>()
                .ok()?,
        })
    }
}

/// Runs the workload in this process: one part of an end-to-end run, or
/// a whole traced run.
fn run_here(args: &Args, threads: usize) -> ExitCode {
    let mut kernel = Kernel::new(threads);
    kernel.sample();
    let outcome = match args.workload.as_str() {
        "table1-cold" => inproc::table1_cold(args, &mut kernel),
        "table1-warm" => inproc::table1_warm(args, &mut kernel),
        _ => match daemon::mixed(args, &mut kernel) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("perfbench: daemon-mixed: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let speed = Speed::from_kernel(kernel.nominal_us(), &kernel.samples_us);
    if args.part.is_some() {
        let part = Part {
            tally: outcome.tally,
            jobs: outcome.jobs,
            rss_mb: outcome.rss_mb,
            setup_s: outcome.setup_s,
            kernel_us: median(&kernel.samples_us),
            speed: speed.factor(),
            pass_s: outcome.pass_s,
        };
        println!("{}", part.render());
        return ExitCode::SUCCESS;
    }

    let tally = &outcome.tally;
    println!(
        "workload={} seed={} kernel_median_us={:.1} speed_factor={:.4}",
        args.workload,
        args.seed,
        median(&kernel.samples_us),
        speed.factor()
    );
    println!(
        "operations: attempted={} failed={} {}",
        tally.attempted,
        tally.failed(),
        tally.render()
    );
    for layer in &outcome.layers {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == layer.name),
            "unlisted layer metric {}",
            layer.name
        );
    }
    let metrics: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            // Metrics of a layer the workload does not run (the
            // service's on the in-process workloads) read 0.
            let value = outcome
                .layers
                .iter()
                .find(|l| l.name == *name)
                .map_or(0.0, |l| {
                    if l.is_time {
                        speed.time(l.value)
                    } else {
                        l.value
                    }
                });
            json_metric(name, value, unit)
        })
        .collect();
    print_result(tally, &metrics)
}

/// Runs [`PROCESSES`] processes of the workload one after another and
/// pools their passes into one end-to-end result.
fn run_pooled(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: locating the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut tally = Tally::default();
    let mut parts = Vec::new();
    for k in 0..PROCESSES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", &args.workload, "--trace", "0"])
            .args(["--seed", &args.seed.to_string(), "--part", &k.to_string()])
            .args(["--seconds", &(args.seconds / PROCESSES as f64).to_string()]);
        if let Some(daemon) = &args.daemon {
            cmd.arg("--daemon").arg(daemon);
        }
        let output = cmd.stderr(std::process::Stdio::inherit()).output();
        let part = output.ok().and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            text.lines().last().and_then(Part::parse)
        });
        match part {
            Some(part) => {
                tally.merge(&part.tally);
                println!(
                    "process {k}: passes={} kernel_median_us={:.1} speed_factor={:.4} raw_pass_p50_ms={:.4} setup_s={:.4} peak_rss_mb={:.2}",
                    part.pass_s.len(),
                    part.kernel_us,
                    part.speed,
                    median(&part.pass_s) * 1e3,
                    part.setup_s,
                    part.rss_mb
                );
                parts.push(part);
            }
            None => {
                eprintln!("perfbench: process {k} of the run gave no result");
                tally.record(Some(Failure::Crashed));
            }
        }
    }
    println!(
        "operations: attempted={} failed={} {}",
        tally.attempted,
        tally.failed(),
        tally.render()
    );
    if parts.is_empty() {
        return print_result(&tally, &[]);
    }
    let pooled = |scaled: bool| -> Vec<f64> {
        parts
            .iter()
            .flat_map(|p| {
                p.pass_s
                    .iter()
                    .map(move |t| t * if scaled { p.speed } else { 1.0 })
            })
            .collect()
    };
    let (raw, norm) = (pooled(false), pooled(true));
    let jobs = parts.iter().map(|p| p.jobs).sum::<u64>() as f64;
    let rate = |passes: &[f64]| jobs / passes.iter().sum::<f64>();
    let setup = |scaled: bool| -> f64 {
        let s: Vec<f64> = parts
            .iter()
            .map(|p| p.setup_s * if scaled { p.speed } else { 1.0 })
            .collect();
        median(&s)
    };
    let rss = median(&parts.iter().map(|p| p.rss_mb).collect::<Vec<_>>());
    println!(
        "raw: passes={} pass_p50_ms={:.4} pass_p90_ms={:.4} jobs_per_s={:.2} setup_s={:.4} peak_rss_mb={:.2}",
        raw.len(),
        median(&raw) * 1e3,
        quantile(&raw, 0.9) * 1e3,
        rate(&raw),
        setup(false),
        rss
    );
    let metrics = [
        json_metric("setup_s", setup(true), "s"),
        json_metric("jobs_per_s", rate(&norm), "1/s"),
        json_metric("pass_p50_ms", median(&norm) * 1e3, "ms"),
        json_metric("pass_p90_ms", quantile(&norm, 0.9) * 1e3, "ms"),
        json_metric("peak_rss_mb", rss, "MB"),
    ];
    print_result(&tally, &metrics)
}

/// Prints the result line; the exit code says whether every check held.
fn print_result(tally: &Tally, metrics: &[String]) -> ExitCode {
    let failed = tally.failed();
    let correct = failed == 0 && !metrics.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        tally.attempted,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = match args.workload.as_str() {
        "table1-cold" | "daemon-mixed" => THREADS,
        "table1-warm" => 1,
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    if let Some(part) = args.part {
        // Each process of a pooled run draws its own inputs from the seed.
        args.seed = args.seed.wrapping_mul(PROCESSES as u64).wrapping_add(part);
    }
    if args.trace || args.part.is_some() {
        run_here(&args, threads)
    } else {
        run_pooled(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_part_survives_its_trip_to_the_parent() {
        let mut tally = Tally::default();
        tally.record(None);
        tally.record(Some(Failure::Busy));
        let part = Part {
            tally,
            jobs: 36,
            rss_mb: 7.25,
            setup_s: 0.125,
            kernel_us: 4012.5,
            speed: 0.996_884_735_202_492_2,
            pass_s: vec![0.013_25, 0.014_5],
        };
        let back = Part::parse(&part.render()).expect("parses");
        assert_eq!(back.tally.encode(), part.tally.encode());
        assert_eq!((back.jobs, back.rss_mb, back.setup_s), (36, 7.25, 0.125));
        assert_eq!((back.kernel_us, back.speed), (part.kernel_us, part.speed));
        assert_eq!(back.pass_s, part.pass_s);
        assert!(Part::parse("part tally=1 jobs=x").is_none());
    }
}
