//! The in-process Table 1 workloads.
//!
//! - `table1-cold`: the 18-job corpus with isolated memos through the
//!   `verify_corpus_parallel` on two workers, in a seeded job order per pass:
//!   uncached solver search does most of the work and the scheduler's
//!   job order decides the tail.
//! - `table1-warm`: the same programs in their service form, sequential,
//!   against one memo that set-up filled: every timed pass makes zero
//!   theory calls, so parse, lint, typecheck, lower, Houdini bookkeeping
//!   and memo keying and lookup do all the work.

use std::sync::Arc;
use std::time::Instant;

use shadowdp::{corpus, table1, CorpusJob, Expected, Pipeline};
use shadowdp_solver::QueryMemo;

use crate::kernel::Kernel;
use crate::stats::{Failure, Rng, Tally};
use crate::trace::{self, Tracer};
use crate::{check_report, core_figures, core_metrics, peak_rss_mb, timed_loop, Args, Outcome};

/// Parallel passes run after each cold set-up before timing starts.
const COLD_WARMUP: usize = 2;

/// Sequential passes run after each warm set-up before timing starts.
const WARM_WARMUP: usize = 2;

/// The Table 1 jobs as traced jobs, named after their algorithms.
fn traced_jobs(jobs: &[CorpusJob]) -> Vec<trace::Job> {
    let names = corpus::table1_algorithms();
    jobs.iter()
        .enumerate()
        .map(|(i, job)| trace::Job::new(job, names[i / 2].name, Expected::Proved))
        .collect()
}

/// Checks every report of `outcome`, whose slot `i` ran job `order[i]`,
/// against `Proved` and the job's `reference` digest.
fn checked(
    tally: &mut Tally,
    reference: &[String],
    order: &[usize],
    outcome: &shadowdp::CorpusOutcome,
) {
    for (slot, &i) in order.iter().enumerate() {
        tally.record(check_report(outcome, slot, Expected::Proved, &reference[i]));
    }
}

/// The digests of a sequential reference run of `jobs`, checked against
/// the corpus's expected verdicts.
fn reference_digests(tally: &mut Tally, outcome: &shadowdp::CorpusOutcome) -> Vec<String> {
    let digests: Vec<String> = (0..outcome.reports.len())
        .map(|i| outcome.report_digest(i))
        .collect();
    let order: Vec<usize> = (0..digests.len()).collect();
    checked(tally, &digests, &order, outcome);
    digests
}

/// Traced run shared by every workload: traced sequential passes of
/// `jobs` alternating with `untraced` passes of the same programs (which
/// return their length in seconds), for `seconds`.
pub fn layer_run(
    seconds: f64,
    kernel: &mut Kernel,
    tally: &mut Tally,
    jobs: &[trace::Job],
    memo: Option<&Arc<QueryMemo>>,
    mut untraced: impl FnMut(&mut Tally) -> f64,
) -> (Tracer, Vec<crate::Layer>) {
    let mut tracer = Tracer::new();
    let mut passes = Vec::new();
    let mut untraced_s = Vec::new();
    timed_loop(seconds, kernel, |n| {
        passes.push(trace::traced_pass(&mut tracer, n, jobs, memo, tally));
        untraced_s.push(untraced(tally));
        true
    });
    let layers = trace::layer_metrics(&passes, &untraced_s);
    (tracer, layers)
}

/// Writes a traced run's spans to `.perfbench-out/`, as Chrome
/// `trace_event` JSON.
pub fn write_trace(args: &Args, tracer: &Tracer) {
    let path = std::path::PathBuf::from(format!(
        ".perfbench-out/trace-{}-seed{}.json",
        args.workload, args.seed
    ));
    match tracer.write(&path) {
        Ok(()) => println!("trace: {}", path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
}

/// `table1-cold`.
pub fn table1_cold(args: &Args, kernel: &mut Kernel) -> Outcome {
    let pipeline = Pipeline::new();
    let mut out = Outcome::default();
    let start = Instant::now();
    let jobs = table1::corpus_jobs();
    // Sequential `verify_corpus` is the reference path; the timed one is
    // `verify_corpus_parallel`.
    let reference = reference_digests(&mut out.tally, &pipeline.verify_corpus(&jobs));
    for _ in 0..COLD_WARMUP {
        pipeline.verify_corpus_parallel(&jobs, Some(crate::THREADS));
    }
    out.setup_s = start.elapsed().as_secs_f64();

    let mut rng = Rng::new(args.seed);
    let mut parallel_pass = |tally: &mut Tally, pass_s: &mut Vec<f64>| {
        let order = rng.permutation(jobs.len());
        let ordered: Vec<CorpusJob> = order.iter().map(|&i| jobs[i].clone()).collect();
        let start = Instant::now();
        let outcome = pipeline.verify_corpus_parallel(&ordered, Some(crate::THREADS));
        pass_s.push(start.elapsed().as_secs_f64());
        checked(tally, &reference, &order, &outcome);
        outcome
    };

    if args.trace {
        let traced = traced_jobs(&jobs);
        let mut figures = Vec::new();
        let identity: Vec<usize> = (0..jobs.len()).collect();
        let (tracer, mut layers) = layer_run(
            args.seconds,
            kernel,
            &mut out.tally,
            &traced,
            None,
            |tally| {
                let start = Instant::now();
                let sequential = pipeline.verify_corpus(&jobs);
                let secs = start.elapsed().as_secs_f64();
                checked(tally, &reference, &identity, &sequential);
                figures.push(core_figures(&parallel_pass(tally, &mut Vec::new())));
                secs
            },
        );
        write_trace(args, &tracer);
        layers.extend(core_metrics(&figures));
        out.layers = layers;
    } else {
        timed_loop(args.seconds, kernel, |_| {
            parallel_pass(&mut out.tally, &mut out.pass_s);
            true
        });
        out.jobs = (out.pass_s.len() * jobs.len()) as u64;
    }
    out.rss_mb = peak_rss_mb("self");
    out
}

/// `table1-warm`.
pub fn table1_warm(args: &Args, kernel: &mut Kernel) -> Outcome {
    let pipeline = Pipeline::new();
    let mut out = Outcome::default();
    let start = Instant::now();
    let jobs = table1::service_jobs();
    let memo = Arc::new(QueryMemo::default());
    let cold = pipeline.verify_corpus_parallel_with_memo(&jobs, Some(1), &memo);
    let reference = reference_digests(&mut out.tally, &cold);
    for _ in 0..WARM_WARMUP {
        pipeline.verify_corpus_parallel_with_memo(&jobs, Some(1), &memo);
    }
    out.setup_s = start.elapsed().as_secs_f64();

    let warm_pass = |tally: &mut Tally| {
        let start = Instant::now();
        let outcome = pipeline.verify_corpus_parallel_with_memo(&jobs, Some(1), &memo);
        let secs = start.elapsed().as_secs_f64();
        for (slot, report) in outcome.reports.iter().enumerate() {
            // The memo must answer every query: a theory call is a miss.
            let missed = report
                .as_ref()
                .is_ok_and(|r| r.solver_stats.theory_calls > 0);
            tally.record(
                check_report(&outcome, slot, Expected::Proved, &reference[slot])
                    .or(missed.then_some(Failure::CacheMiss)),
            );
        }
        (secs, outcome)
    };

    if args.trace {
        let traced = traced_jobs(&jobs);
        let mut figures = Vec::new();
        let (tracer, mut layers) = layer_run(
            args.seconds,
            kernel,
            &mut out.tally,
            &traced,
            Some(&memo),
            |tally| {
                let (secs, outcome) = warm_pass(tally);
                figures.push(core_figures(&outcome));
                secs
            },
        );
        write_trace(args, &tracer);
        layers.extend(core_metrics(&figures));
        out.layers = layers;
    } else {
        timed_loop(args.seconds, kernel, |_| {
            let (secs, _) = warm_pass(&mut out.tally);
            out.pass_s.push(secs);
            true
        });
        out.jobs = (out.pass_s.len() * jobs.len()) as u64;
    }
    out.rss_mb = peak_rss_mb("self");
    out
}
