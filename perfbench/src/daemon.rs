//! `daemon-mixed`: the release `shadowdpd` driven through its wire
//! protocol by one client connection in a closed loop.
//!
//! Each seeded round submits, in a shuffled order:
//! - the 18 Table 1 specs, answered from the verdict store (reads);
//! - [`WRITES`] Table 1 specs with the inert Houdini round cap raised to
//!   an unused value — a new pipeline key whose every solver query is
//!   already memoized — which run and append to the store (writes);
//! - the bug-finding jobs, nudged the same way: two buggy Sparse Vector
//!   variants (BMC refutation and model extraction), the buggy Noisy Max
//!   (typing rejection) and the Laplace mechanism;
//!
//! then collects every `RESULT`. Each answer must carry the digest of an
//! in-process `Pipeline` run of the same program and mode without the
//! nudge.
//!
//! The third buggy Sparse Vector variant (`BadSVT3`) is left out: in about
//! one daemon in a hundred its refutation carries a different
//! counterexample than the in-process run, so its digest check fails now
//! and then, and a failure that comes and goes cannot be counted the same
//! way in every run.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use shadowdp::{corpus, table1, CorpusJob, Expected, JobSpec, Pipeline};
use shadowdp_service::{wire_digest, Client, JobOutcome, OutcomeKind};
use shadowdp_solver::QueryMemo;
use shadowdp_verify::{BmcOptions, Engine, Options};

use crate::inproc::{layer_run, write_trace};
use crate::kernel::Kernel;
use crate::stats::{median, ratio, Failure, Rng, Tally};
use crate::trace::{self, Tracer};
use crate::{check_report, core_figures, core_metrics, peak_rss_mb, timed_loop, Args, Layer};
use crate::{Outcome, THREADS};

/// Pipeline-tier cap of the daemon's store (`--store-max-pipeline-entries`).
const CAP: u64 = 64;

/// Nudged Table 1 specs per round: with the four bug-finding jobs and the
/// 18 reads, 24 jobs per round.
const WRITES: usize = 2;

/// First nudged Houdini round cap: far above any round count the corpus
/// reaches, so the nudge changes the pipeline key and nothing else.
const NUDGE_BASE: usize = 1_000_000;

/// Rounds run after the pipeline tier reached its cap, before timing.
const WARM_ROUNDS: usize = 10;

/// Set-up gives up filling the cap after this many rounds.
const MAX_FILL_ROUNDS: usize = 100;

/// A round that takes longer than this is killed and counted as timed out.
const ROUND_DEADLINE: Duration = Duration::from_secs(30);

/// How long a spawned daemon may take to accept connections.
const START_DEADLINE: Duration = Duration::from_secs(10);

/// Mixes the seed for set-up rounds, so the timed rounds' make-up does not
/// depend on how many rounds set-up took.
const SETUP_SALT: u64 = 0x5EED_0F5E_7A9E;

/// One distinct program: its wire form and what every answer must carry.
struct Program {
    spec: JobSpec,
    expect: Expected,
    /// Wire digest of the in-process reference run.
    digest: String,
}

/// Options of the bug-finding jobs: the inductive engine, then BMC with
/// the corpus's parameter assumptions.
fn bug_finding_options(alg: &corpus::Algorithm) -> Options {
    Options {
        engine: Engine::InductiveThenBmc,
        bmc: BmcOptions {
            list_len: 3,
            max_unroll: None,
            assumptions: alg
                .bmc_assumptions
                .iter()
                .map(|s| shadowdp_syntax::parse_expr(s).expect("corpus assumption parses"))
                .collect(),
        },
        ..Options::default()
    }
}

/// The distinct programs: 18 Table 1 service jobs (the reads) first, then
/// the bug-finding jobs. Returns the corpus jobs, their names and expected
/// verdicts.
fn corpus_programs() -> Vec<(CorpusJob, &'static str, Expected)> {
    let names = corpus::table1_algorithms();
    let mut all: Vec<_> = table1::service_jobs()
        .into_iter()
        .enumerate()
        .map(|(i, job)| (job, names[i / 2].name, Expected::Proved))
        .collect();
    let left_out = corpus::bad_svt_over_budget().name;
    let mut group = corpus::buggy_algorithms();
    group.retain(|alg| alg.name != left_out);
    group.push(corpus::laplace_mechanism());
    all.extend(group.into_iter().map(|alg| {
        (
            CorpusJob::with_options(alg.source, bug_finding_options(&alg)),
            alg.name,
            alg.expect,
        )
    }));
    all
}

/// Input generation: the programs with the digests of an in-process
/// reference run, checked against their expected verdicts.
fn programs(tally: &mut Tally, jobs: &[CorpusJob], expect: &[Expected]) -> Vec<Program> {
    let reference = Pipeline::new().verify_corpus(jobs);
    (0..jobs.len())
        .map(|i| {
            let text = reference.report_digest(i);
            tally.record(check_report(&reference, i, expect[i], &text));
            Program {
                spec: JobSpec::from_job(&jobs[i]),
                expect: expect[i],
                digest: wire_digest(&text),
            }
        })
        .collect()
}

/// Checks one wire answer.
fn judge(outcome: &JobOutcome, program: &Program) -> Option<Failure> {
    let verdict_ok = match (outcome.kind, program.expect) {
        (OutcomeKind::Crashed, _) => return Some(Failure::Crashed),
        (OutcomeKind::Error, Expected::TypeError) => true,
        (OutcomeKind::Error | OutcomeKind::Exhausted, _) => return Some(Failure::PipelineError),
        (OutcomeKind::Completed, Expected::Proved) => outcome.verdict == "proved",
        (OutcomeKind::Completed, Expected::Refuted) => outcome.verdict.starts_with("refuted"),
        (OutcomeKind::Completed, Expected::TypeError) => false,
    };
    if !verdict_ok {
        Some(Failure::WrongVerdict)
    } else if outcome.digest != program.digest {
        Some(Failure::DigestMismatch)
    } else {
        None
    }
}

/// Client-side figures of the timed rounds.
#[derive(Default)]
struct RoundStats {
    submit_us: Vec<f64>,
    result_wait_ms: Vec<f64>,
    submitted: u64,
    store_served: u64,
}

/// Kills the daemon when a round outlives [`ROUND_DEADLINE`].
struct Watchdog {
    deadline: Arc<Mutex<Option<Instant>>>,
    fired: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    fn start(child: Arc<Mutex<Child>>) -> Watchdog {
        let deadline: Arc<Mutex<Option<Instant>>> = Arc::default();
        let fired = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (deadline, fired, stop) = (deadline.clone(), fired.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(50));
                    let due = *deadline.lock().expect("watchdog deadline lock");
                    if due.is_some_and(|d| Instant::now() > d) {
                        fired.store(true, Ordering::SeqCst);
                        let _ = child.lock().expect("daemon child lock").kill();
                        return;
                    }
                }
            })
        };
        Watchdog {
            deadline,
            fired,
            stop,
            thread: Some(thread),
        }
    }

    fn arm(&self, budget: Option<Duration>) {
        *self.deadline.lock().expect("watchdog deadline lock") = budget.map(|b| Instant::now() + b);
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A spawned `shadowdpd` with its private socket, store and journal in
/// `dir`. Dropping it kills the daemon and removes `dir`.
struct Daemon {
    watchdog: Watchdog,
    child: Arc<Mutex<Child>>,
    pid: u32,
    dir: PathBuf,
    client: Option<Client>,
    nudge: usize,
}

impl Daemon {
    fn spawn(bin: &Path, dir: PathBuf) -> io::Result<Daemon> {
        std::fs::create_dir_all(&dir)?;
        let socket = dir.join("d.sock");
        let child = Command::new(bin)
            .arg("--socket")
            .arg(&socket)
            .arg("--store")
            .arg(dir.join("store"))
            .args(["--threads", &THREADS.to_string()])
            .args(["--store-max-pipeline-entries", &CAP.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        let pid = child.id();
        let child = Arc::new(Mutex::new(child));
        let mut daemon = Daemon {
            watchdog: Watchdog::start(child.clone()),
            child,
            pid,
            dir,
            client: None,
            nudge: 0,
        };
        // From here on, dropping `daemon` kills the process.
        let deadline = Instant::now() + START_DEADLINE;
        let client = loop {
            match Client::connect(&socket) {
                Ok(client) => break client,
                Err(e) if Instant::now() > deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        daemon.client = Some(client);
        daemon.client().ping()?;
        Ok(daemon)
    }

    fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("a spawned daemon has a client")
    }

    /// `spec` with a Houdini round cap no earlier submission used.
    fn nudged(&mut self, spec: &JobSpec) -> JobSpec {
        let mut spec = spec.clone();
        spec.options
            .as_mut()
            .expect("corpus specs carry options")
            .max_rounds = NUDGE_BASE + self.nudge;
        self.nudge += 1;
        spec
    }

    fn failure(&self, e: &io::Error) -> Failure {
        if self.watchdog.fired.load(Ordering::SeqCst) {
            Failure::Timeout
        } else if e.kind() == io::ErrorKind::WouldBlock {
            Failure::Busy
        } else {
            Failure::DaemonErr
        }
    }

    /// Submits `subs` (program index, spec), then collects every result
    /// and checks it. Returns the round's length in seconds, or `None`
    /// once the connection failed (every unanswered job counted failed).
    fn submit_all(
        &mut self,
        programs: &[Program],
        subs: &[(usize, JobSpec)],
        tally: &mut Tally,
        stats: &mut RoundStats,
        mut tracer: Option<&mut Tracer>,
    ) -> Option<f64> {
        self.watchdog.arm(Some(ROUND_DEADLINE));
        let round_span = tracer.as_deref_mut().map(Tracer::begin);
        let parent = round_span.map_or(0, trace::Open::id);
        let start = Instant::now();
        let mut ids = Vec::with_capacity(subs.len());
        let mut error = None;
        for (_, spec) in subs {
            let submit = tracer.as_deref_mut().map(Tracer::begin);
            let t = Instant::now();
            match self.client().submit(spec) {
                Ok(id) => {
                    stats.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                    if let (Some(tr), Some(open)) = (tracer.as_deref_mut(), submit) {
                        tr.end(open, "service.submit", parent, format!("job={id}"));
                    }
                    ids.push(id);
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        let queued = Instant::now();
        let wait_span = tracer.as_deref_mut().map(Tracer::begin);
        let mut answers = Vec::with_capacity(ids.len());
        if error.is_none() {
            for &id in &ids {
                match self.client().result(id) {
                    Ok(outcome) => answers.push(outcome),
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                }
            }
        }
        let secs = start.elapsed().as_secs_f64();
        self.watchdog.arm(None);
        if let (Some(tr), Some(wait), Some(round)) = (tracer, wait_span, round_span) {
            tr.end(wait, "service.results", parent, String::new());
            tr.end(round, "round", 0, format!("jobs={}", subs.len()));
        }
        for (i, (program, _)) in subs.iter().enumerate() {
            match answers.get(i) {
                Some(outcome) => {
                    tally.record(judge(outcome, &programs[*program]));
                    stats.store_served += u64::from(outcome.from_store);
                }
                None => tally.record(Some(
                    self.failure(error.as_ref().expect("a missing answer has an error")),
                )),
            }
        }
        if let Some(e) = error {
            eprintln!("perfbench: daemon round failed: {e}");
            return None;
        }
        stats.submitted += subs.len() as u64;
        stats
            .result_wait_ms
            .push(queued.elapsed().as_secs_f64() * 1e3);
        Some(secs)
    }

    /// One seeded mixed round.
    fn round(
        &mut self,
        programs: &[Program],
        rng: &mut Rng,
        tally: &mut Tally,
        stats: &mut RoundStats,
        tracer: Option<&mut Tracer>,
    ) -> Option<f64> {
        let reads = table1::corpus_jobs().len();
        let mut subs: Vec<(usize, JobSpec)> =
            (0..reads).map(|i| (i, programs[i].spec.clone())).collect();
        for _ in 0..WRITES {
            let i = rng.below(reads);
            subs.push((i, self.nudged(&programs[i].spec)));
        }
        for (i, program) in programs.iter().enumerate().skip(reads) {
            subs.push((i, self.nudged(&program.spec)));
        }
        rng.shuffle(&mut subs);
        self.submit_all(programs, &subs, tally, stats, tracer)
    }

    /// Asks the daemon to exit and waits for it.
    fn shutdown(self) -> io::Result<()> {
        let mut client = Client::connect(self.dir.join("d.sock"))?;
        client.shutdown()?;
        let deadline = Instant::now() + START_DEADLINE;
        while self
            .child
            .lock()
            .expect("daemon child lock")
            .try_wait()?
            .is_none()
        {
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "daemon did not exit after SHUTDOWN",
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut child) = self.child.lock() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One set-up: input generation with reference runs, daemon spawn, the
/// cold fill (every program once, un-nudged), then rounds until the
/// pipeline tier is at its cap plus [`WARM_ROUNDS`]. Returns the daemon,
/// the programs and the cold fill's length in seconds.
fn setup(
    bin: &Path,
    dir: PathBuf,
    seed: u64,
    tally: &mut Tally,
    jobs: &[CorpusJob],
    expect: &[Expected],
) -> io::Result<(Daemon, Vec<Program>, f64)> {
    let programs = programs(tally, jobs, expect);
    let mut daemon = Daemon::spawn(bin, dir)?;
    let all: Vec<(usize, JobSpec)> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| (i, p.spec.clone()))
        .collect();
    let mut stats = RoundStats::default();
    let fail = || io::Error::other("set-up round failed");
    let cold_fill = daemon
        .submit_all(&programs, &all, tally, &mut stats, None)
        .ok_or_else(fail)?;
    let mut rng = Rng::new(seed ^ SETUP_SALT);
    let mut rounds = 0;
    while daemon.client().status()?.pipeline_store < CAP && rounds < MAX_FILL_ROUNDS {
        daemon
            .round(&programs, &mut rng, tally, &mut stats, None)
            .ok_or_else(fail)?;
        rounds += 1;
    }
    for _ in 0..WARM_ROUNDS {
        daemon
            .round(&programs, &mut rng, tally, &mut stats, None)
            .ok_or_else(fail)?;
    }
    Ok((daemon, programs, cold_fill))
}

/// The timed rounds of a run.
struct Timed<'a> {
    programs: &'a [Program],
    rng: &'a mut Rng,
    stats: &'a mut RoundStats,
    seconds: f64,
}

impl Timed<'_> {
    fn run(
        self,
        daemon: &mut Daemon,
        kernel: &mut Kernel,
        out: &mut Outcome,
        mut tracer: Option<&mut Tracer>,
    ) {
        timed_loop(self.seconds, kernel, |_| {
            let round = daemon.round(
                self.programs,
                self.rng,
                &mut out.tally,
                self.stats,
                tracer.as_deref_mut(),
            );
            round.inspect(|secs| out.pass_s.push(*secs)).is_some()
        });
    }
}

/// Unlabeled samples of a `METRICS` scrape, by name.
fn scrape(client: &mut Client) -> io::Result<Vec<(String, f64)>> {
    let text = client.metrics()?;
    let samples = shadowdp_obs::parse_exposition(&text).map_err(io::Error::other)?;
    Ok(samples
        .into_iter()
        .filter(|s| s.labels.is_empty())
        .map(|s| (s.name, s.value))
        .collect())
}

fn delta(before: &[(String, f64)], after: &[(String, f64)], name: &str) -> f64 {
    let get = |m: &[(String, f64)]| m.iter().find(|(n, _)| n == name).map_or(0.0, |s| s.1);
    get(after) - get(before)
}

/// `daemon-mixed`.
///
/// # Errors
///
/// Spawning or talking to the daemon failed outside a checked round.
pub fn mixed(args: &Args, kernel: &mut Kernel) -> io::Result<Outcome> {
    let bin = args
        .daemon
        .clone()
        .ok_or_else(|| io::Error::other("--daemon <path to shadowdpd> is required"))?;
    let base = PathBuf::from(format!(".perfbench-out/daemon-{}", std::process::id()));
    std::fs::create_dir_all(&base)?;
    kernel.with_io(&base.join("kernel.bin"))?;
    let result = run(args, kernel, &bin, &base);
    let _ = std::fs::remove_dir_all(&base);
    result
}

fn run(args: &Args, kernel: &mut Kernel, bin: &Path, base: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let corpus = corpus_programs();
    let jobs: Vec<CorpusJob> = corpus.iter().map(|c| c.0.clone()).collect();
    let expect: Vec<Expected> = corpus.iter().map(|c| c.2).collect();
    let start = Instant::now();
    let (mut daemon, programs, cold_fill) = setup(
        bin,
        base.join("d"),
        args.seed,
        &mut out.tally,
        &jobs,
        &expect,
    )?;
    out.setup_s = start.elapsed().as_secs_f64();

    let mut rng = Rng::new(args.seed);
    let mut stats = RoundStats::default();
    if args.trace {
        // In-process half: the same programs, against a memo one untraced
        // pass filled, as the daemon's writes run.
        let memo = Arc::new(QueryMemo::default());
        let pipeline = Pipeline::new();
        pipeline.verify_corpus_parallel_with_memo(&jobs, Some(1), &memo);
        let traced: Vec<trace::Job> = corpus
            .iter()
            .map(|(job, name, expect)| trace::Job::new(job, name, *expect))
            .collect();
        let mut figures = Vec::new();
        let (mut tracer, mut layers) = layer_run(
            args.seconds / 2.0,
            kernel,
            &mut out.tally,
            &traced,
            Some(&memo),
            |tally| {
                let start = Instant::now();
                let outcome = pipeline.verify_corpus_parallel_with_memo(&jobs, Some(1), &memo);
                let secs = start.elapsed().as_secs_f64();
                for i in 0..jobs.len() {
                    let text = outcome.report_digest(i);
                    let failure =
                        check_report(&outcome, i, expect[i], &text)
                            .or((wire_digest(&text) != programs[i].digest)
                                .then_some(Failure::DigestMismatch));
                    tally.record(failure);
                }
                figures.push(core_figures(&outcome));
                secs
            },
        );
        layers.extend(core_metrics(&figures));

        // Daemon half: client-side verb timings and METRICS deltas.
        let before = scrape(daemon.client())?;
        let timed = Timed {
            programs: &programs,
            rng: &mut rng,
            stats: &mut stats,
            seconds: args.seconds / 2.0,
        };
        timed.run(&mut daemon, kernel, &mut out, Some(&mut tracer));
        let after = scrape(daemon.client())?;
        let status = daemon.client().status()?;
        write_trace(args, &tracer);
        let n = out.pass_s.len() as f64;
        let per_round = |name| delta(&before, &after, name) / n;
        let mean_of = |name: &str| {
            ratio(
                delta(&before, &after, &format!("{name}_sum")),
                delta(&before, &after, &format!("{name}_count")),
            )
        };
        layers.extend([
            Layer::time("service.submit_us", median(&stats.submit_us)),
            Layer::time("service.result_wait_ms", median(&stats.result_wait_ms)),
            Layer::count("service.batches", per_round("shadowdp_batches_total")),
            Layer::count("service.batch_jobs", mean_of("shadowdp_batch_jobs")),
            Layer::count(
                "service.store_hit_ratio",
                ratio(stats.store_served as f64, stats.submitted as f64),
            ),
            Layer::time("service.flush_us", mean_of("shadowdp_store_flush_us")),
            Layer::count("service.store_bytes", status.store_bytes as f64),
            Layer::count(
                "service.evictions",
                per_round("shadowdp_pipeline_evictions_total"),
            ),
            Layer::time("service.cold_fill_ms", cold_fill * 1e3),
        ]);
        out.layers = layers;
    } else {
        let timed = Timed {
            programs: &programs,
            rng: &mut rng,
            stats: &mut stats,
            seconds: args.seconds,
        };
        timed.run(&mut daemon, kernel, &mut out, None);
        out.jobs = stats.submitted;
        out.rss_mb = peak_rss_mb(&daemon.pid.to_string());
    }
    daemon.shutdown()?;
    Ok(out)
}
