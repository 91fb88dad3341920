//! The traced run: executes a workload's distinct programs sequentially,
//! calling each layer's public entry point from outside and recording a
//! span around every call. Spans stay in memory and are written as a
//! Chrome `trace_event` file when the run ends.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use shadowdp::{CorpusJob, Expected};
use shadowdp_obs::SpanRecord;
use shadowdp_solver::{QueryMemo, Solver, SolverStats};
use shadowdp_verify::{bmc, inductive, BmcOutcome, Engine, InductiveOutcome, Options};

use crate::stats::{median, ratio, Failure, Tally};
use crate::Layer;

/// One program of a traced pass.
pub struct Job {
    /// Label for the job's spans.
    pub name: String,
    /// ShadowDP source text.
    pub source: String,
    /// Verification options (never with a budget).
    pub options: Options,
    /// The verdict the corpus expects.
    pub expect: Expected,
}

impl Job {
    /// The traced form of a corpus job.
    pub fn new(job: &CorpusJob, name: &str, expect: Expected) -> Job {
        let options = job.options.clone().unwrap_or_default();
        assert!(options.budget.is_none(), "traced jobs run without budgets");
        Job {
            name: name.to_string(),
            source: job.source.clone(),
            options,
            expect,
        }
    }
}

/// In-memory span log.
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    spans: Vec<SpanRecord>,
}

/// An open span: its id and start.
#[derive(Clone, Copy)]
pub struct Open(u64, Instant);

impl Open {
    /// The span's id, for its children's `parent`.
    pub fn id(self) -> u64 {
        self.0
    }
}

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// Opens a span.
    pub fn begin(&mut self) -> Open {
        self.next_id += 1;
        Open(self.next_id, Instant::now())
    }

    /// Closes `open` under `parent` (0 = root) and returns its length in
    /// seconds.
    pub fn end(&mut self, open: Open, name: &'static str, parent: u64, label: String) -> f64 {
        let end = Instant::now();
        let start_us = open.1.duration_since(self.origin).as_micros() as u64;
        self.spans.push(SpanRecord {
            name,
            label: Some(label),
            id: open.0,
            parent,
            tid: 1,
            start_us,
            dur_us: (end.duration_since(self.origin).as_micros() as u64).saturating_sub(start_us),
        });
        (end - open.1).as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result and length in
    /// seconds.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        label: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin();
        let out = f();
        let secs = self.end(open, name, parent, label.to_string());
        (out, secs)
    }

    /// Writes the log as Chrome `trace_event` JSON.
    ///
    /// # Errors
    ///
    /// The file-system error, if the file cannot be written.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, shadowdp_obs::chrome_trace_json(&self.spans))
    }
}

/// Layer totals of one traced pass, times in seconds.
#[derive(Clone, Debug, Default)]
pub struct PassLayers {
    parse: f64,
    lint: f64,
    check: f64,
    lower: f64,
    houdini: f64,
    bmc: f64,
    typing_queries: u64,
    houdini_rounds: u64,
    solver: SolverStats,
    pass: f64,
}

impl PassLayers {
    fn layer_sum(&self) -> f64 {
        self.parse + self.lint + self.check + self.lower + self.houdini + self.bmc
    }
}

/// What a traced job concluded.
enum Traced {
    Proved,
    Refuted { witnessed: bool },
    Unknown,
    TypeError,
    ParseError,
}

fn judge(traced: &Traced, expect: Expected) -> Option<Failure> {
    let ok = match (traced, expect) {
        (Traced::Proved, Expected::Proved) | (Traced::TypeError, Expected::TypeError) => true,
        (Traced::Refuted { witnessed }, Expected::Refuted) => *witnessed,
        (Traced::ParseError, _) => return Some(Failure::PipelineError),
        _ => false,
    };
    (!ok).then_some(Failure::WrongVerdict)
}

fn add_stats(acc: &mut SolverStats, s: &SolverStats) {
    acc.checks += s.checks;
    acc.proves += s.proves;
    acc.theory_calls += s.theory_calls;
    acc.micros += s.micros;
    acc.cache_hits += s.cache_hits;
    acc.assumption_queries += s.assumption_queries;
    acc.assumption_hits += s.assumption_hits;
    acc.trail_ops += s.trail_ops;
    acc.saturation_reuses += s.saturation_reuses;
    acc.resaturations += s.resaturations;
}

/// The pipeline's phases, one public entry point at a time, in the order
/// and with the engine choice of `shadowdp_verify::verify_with`.
fn traced_job(
    tr: &mut Tracer,
    parent: u64,
    label: &str,
    job: &Job,
    solver: &Solver,
    acc: &mut PassLayers,
) -> Traced {
    let (parsed, dt) = tr.call("parse", parent, label, || {
        shadowdp_syntax::parse_function(&job.source)
    });
    acc.parse += dt;
    let Ok(f) = parsed else {
        return Traced::ParseError;
    };
    let (_, dt) = tr.call("lint", parent, label, || {
        shadowdp_analysis::lint_function(&f, &job.source)
    });
    acc.lint += dt;
    let before = solver.stats();
    let (checked, dt) = tr.call("typecheck", parent, label, || {
        shadowdp_typing::check_function_with(&f, solver)
    });
    acc.check += dt;
    let after = solver.stats();
    acc.typing_queries += (after.checks + after.proves) - (before.checks + before.proves);
    let Ok(transformed) = checked else {
        return Traced::TypeError;
    };
    let mode = job.options.mode.clone();
    let (lowered, dt) = tr.call("lower", parent, label, || {
        shadowdp_verify::lower_to_target(&transformed.function, mode)
    });
    acc.lower += dt;
    let Ok(info) = lowered else {
        return Traced::Unknown;
    };
    let run_inductive = matches!(
        job.options.engine,
        Engine::Inductive | Engine::InductiveThenBmc
    );
    let run_bmc = matches!(job.options.engine, Engine::Bmc | Engine::InductiveThenBmc);
    if run_inductive {
        let sink: inductive::RoundProfileSink = Arc::new(Mutex::new(Vec::new()));
        let opts = inductive::InductiveOptions {
            profile: Some(sink.clone()),
            ..job.options.inductive.clone()
        };
        let (outcome, dt) = tr.call("houdini", parent, label, || {
            inductive::prove(&info, &opts, solver)
        });
        acc.houdini += dt;
        acc.houdini_rounds += sink.lock().expect("profile sink not poisoned").len() as u64;
        match outcome {
            InductiveOutcome::Proved { .. } => return Traced::Proved,
            InductiveOutcome::Failed { .. } if !run_bmc => return Traced::Unknown,
            InductiveOutcome::Failed { .. } => {}
        }
    }
    let (outcome, dt) = tr.call("bmc", parent, label, || {
        bmc::check(&info, &job.options.bmc, solver)
    });
    acc.bmc += dt;
    match outcome {
        BmcOutcome::Verified { .. } if !run_inductive => Traced::Proved,
        BmcOutcome::Refuted(cex) => Traced::Refuted {
            witnessed: !cex.witness.is_empty(),
        },
        BmcOutcome::Verified { .. } | BmcOutcome::Inconclusive { .. } => Traced::Unknown,
    }
}

/// One traced pass over `jobs`: isolated solvers when `memo` is `None`
/// (the Table 1 harness's cold rows), else solvers sharing `memo`.
pub fn traced_pass(
    tr: &mut Tracer,
    pass_no: usize,
    jobs: &[Job],
    memo: Option<&Arc<QueryMemo>>,
    tally: &mut Tally,
) -> PassLayers {
    let mut acc = PassLayers::default();
    let pass = tr.begin();
    for (i, job) in jobs.iter().enumerate() {
        let solver = memo.map_or_else(Solver::new, |m| Solver::with_memo(m.clone()));
        let label = format!("job={i} {}", job.name);
        let open = tr.begin();
        let traced = traced_job(tr, open.id(), &label, job, &solver, &mut acc);
        tr.end(open, "job", pass.id(), label);
        add_stats(&mut acc.solver, &solver.stats());
        tally.record(judge(&traced, job.expect));
    }
    acc.pass = tr.end(pass, "pass", 0, format!("pass={pass_no}"));
    acc
}

/// Per-layer metrics of a traced run: medians over passes of per-pass
/// totals, plus how much of each pass the layer calls cover and what
/// tracing costs against `untraced_s`, untraced passes of the same
/// programs.
pub fn layer_metrics(passes: &[PassLayers], untraced_s: &[f64]) -> Vec<Layer> {
    let med = |f: &dyn Fn(&PassLayers) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let us = |f: &dyn Fn(&PassLayers) -> f64| med(&|p| f(p) * 1e6);
    vec![
        Layer::time("syntax.parse_us", us(&|p| p.parse)),
        Layer::time("analysis.lint_us", us(&|p| p.lint)),
        Layer::time("typing.check_us", us(&|p| p.check)),
        Layer::count("typing.solver_queries", med(&|p| p.typing_queries as f64)),
        Layer::time("verify.lower_us", us(&|p| p.lower)),
        Layer::time("verify.houdini_us", us(&|p| p.houdini)),
        Layer::count("verify.houdini_rounds", med(&|p| p.houdini_rounds as f64)),
        Layer::time("verify.bmc_us", us(&|p| p.bmc)),
        Layer::time("solver.query_us", med(&|p| p.solver.micros as f64)),
        Layer::count(
            "solver.queries",
            med(&|p| (p.solver.checks + p.solver.proves) as f64),
        ),
        Layer::count(
            "solver.memo_hit_ratio",
            med(&|p| {
                ratio(
                    p.solver.cache_hits as f64,
                    (p.solver.checks + p.solver.proves) as f64,
                )
            }),
        ),
        Layer::count(
            "solver.assumption_hit_ratio",
            med(&|p| p.solver.assumption_hit_rate().unwrap_or(0.0)),
        ),
        Layer::count(
            "solver.theory_calls",
            med(&|p| p.solver.theory_calls as f64),
        ),
        Layer::count("solver.trail_ops", med(&|p| p.solver.trail_ops as f64)),
        Layer::count(
            "solver.saturation_reuse_ratio",
            med(&|p| p.solver.saturation_reuse_rate().unwrap_or(0.0)),
        ),
        Layer::count(
            "trace.coverage_ratio",
            med(&|p| ratio(p.layer_sum(), p.pass)),
        ),
        Layer::count(
            "obs.armed_overhead_ratio",
            ratio(med(&|p| p.pass), median(untraced_s)),
        ),
    ]
}
