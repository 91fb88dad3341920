//! Durability contract of the persistent verdict store (append-only log
//! format, v2).
//!
//! Five properties, each pinned independently:
//!
//! 1. **Round trip** — a snapshot → flush → load → absorb cycle recovers
//!    every solver verdict and every pipeline entry (property-tested over
//!    randomized memo contents, and end-to-end over a real corpus run
//!    that must then do zero fresh theory work).
//! 2. **Torn-tail tolerance** — truncating or corrupting the log degrades
//!    the next load to the longest valid record prefix: no panic, no
//!    half-merged record, a note explaining what was dropped. Only header
//!    damage costs the whole store.
//! 3. **Append atomicity** — a crash at *any byte* of an incremental
//!    append, including one that carries eviction tombstones, recovers to
//!    exactly the pre-append or post-append view.
//! 4. **Compaction atomicity** — a crash at *any byte* of a compaction
//!    rewrite (staged in a temp file, renamed over the log) recovers to
//!    exactly the pre- or post-compaction view, never a mix.
//! 5. **Format stability** — a log without evictions encodes byte for
//!    byte as it did before tombstones existed, and a file of the retired
//!    whole-image format (`SDPVERD1`) is a noted cold start.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use shadowdp::{corpus, CorpusJob, JobSpec, Pipeline};
use shadowdp_num::Rat;
use shadowdp_service::{PipelineEntry, VerdictStore};
use shadowdp_solver::{CheckResult, Fingerprint, Model, QueryMemo};

/// A fresh path under the system temp dir, unique per test invocation.
fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "shadowdp-store-{}-{tag}-{n}.bin",
        std::process::id()
    ))
}

/// A distinct trivially-proved program per index; index 0 is the `F` the
/// single-spec tests use.
fn probe_spec(i: usize) -> JobSpec {
    let name = ["F", "G", "H", "I", "J", "K"][i];
    JobSpec::new(format!(
        "function {name}() returns o: num(0,0) {{ o := 0; }}"
    ))
}

fn entry(verdict: &str, digest: &str, deps: Option<Vec<Fingerprint>>) -> PipelineEntry {
    PipelineEntry {
        ok: true,
        verdict: verdict.into(),
        digest: digest.into(),
        deps,
    }
}

// ---------------------------------------------------------------------------
// Property: snapshot → flush → load → absorb recovers every verdict
// ---------------------------------------------------------------------------

fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..26, 1..6)
        .prop_map(|bytes| bytes.into_iter().map(|b| (b'a' + b) as char).collect())
}

fn arb_rat() -> impl Strategy<Value = Rat> {
    (-9999i128..10000, 1i128..100).prop_map(|(n, d)| Rat::new(n, d))
}

fn arb_model() -> impl Strategy<Value = Model> {
    (
        proptest::collection::vec((arb_name(), arb_rat()), 0..5),
        proptest::collection::vec((arb_name(), 0u8..2), 0..4),
        0u8..2,
    )
        .prop_map(|(reals, bools, spurious)| Model {
            reals: reals.into_iter().collect::<BTreeMap<_, _>>(),
            bools: bools
                .into_iter()
                .map(|(k, v)| (k, v == 1))
                .collect::<BTreeMap<_, _>>(),
            possibly_spurious: spurious == 1,
        })
}

fn arb_check_result() -> impl Strategy<Value = CheckResult> {
    prop_oneof![
        Just(CheckResult::Unsat),
        arb_model().prop_map(CheckResult::Sat),
    ]
}

fn arb_fingerprint() -> impl Strategy<Value = Fingerprint> {
    (0u64..u64::MAX, 0u64..u64::MAX)
        .prop_map(|(hi, lo)| Fingerprint(((hi as u128) << 64) | lo as u128))
}

fn arb_deps() -> impl Strategy<Value = Option<Vec<Fingerprint>>> {
    prop_oneof![
        Just(None),
        proptest::collection::vec(arb_fingerprint(), 0..4).prop_map(Some),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One flush (all entries in one base record) round-trips every
    /// verdict, including randomized dependency sets.
    #[test]
    fn snapshot_flush_load_absorb_recovers_every_verdict(
        entries in proptest::collection::vec((arb_fingerprint(), arb_check_result()), 0..24),
        pipeline in proptest::collection::vec((arb_name(), arb_name(), arb_name(), arb_deps()), 0..6),
    ) {
        let memo = QueryMemo::default();
        memo.absorb(entries.clone());

        let path = temp_path("prop");
        let mut store = VerdictStore::load(&path);
        store.update_from_memo(&memo);
        for (source, verdict, digest, deps) in &pipeline {
            store.pipeline_put(
                &JobSpec::new(source.clone()),
                PipelineEntry { ok: true, verdict: verdict.clone(), digest: digest.clone(), deps: deps.clone() },
            );
        }
        store.flush().expect("flush succeeds");

        let reloaded = VerdictStore::load(&path);
        prop_assert!(reloaded.load_note().is_none());
        let recovered = QueryMemo::default();
        reloaded.warm_memo(&recovered);
        // Every verdict the memo held is back, byte for byte (snapshot is
        // sorted, so direct comparison is order-insensitive).
        prop_assert_eq!(recovered.snapshot(), memo.snapshot());
        // Every pipeline entry answers again.
        for (source, verdict, digest, deps) in &pipeline {
            let entry = reloaded.pipeline_get(&JobSpec::new(source.clone()));
            let entry = entry.expect("pipeline entry survived");
            // Later duplicates of the same source overwrite earlier ones,
            // so only check the *last* write for each key.
            if pipeline.iter().rev().find(|(s, _, _, _)| s == source)
                == Some(&(source.clone(), verdict.clone(), digest.clone(), deps.clone()))
            {
                prop_assert_eq!(&entry.verdict, verdict);
                prop_assert_eq!(&entry.digest, digest);
                prop_assert_eq!(&entry.deps, deps);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// The same contents spread over many incremental flushes (one base +
    /// one delta record per step) replay to the same state as one flush —
    /// also when LRU evictions (tombstones) are interleaved with the puts,
    /// including a key evicted and put again before the same flush.
    #[test]
    fn incremental_flushes_replay_like_one_flush(
        entries in proptest::collection::vec((arb_fingerprint(), arb_check_result()), 1..24),
        chunk in 1usize..6,
        jobs in proptest::collection::vec((0usize..6, 0usize..6), 1..8),
        cap in 1usize..4,
    ) {
        let path = temp_path("chunks");
        let specs: Vec<JobSpec> = (0..6).map(probe_spec).collect();
        let mut store = VerdictStore::load(&path);
        for (seq, batch) in entries.chunks(chunk).enumerate() {
            for (fp, result) in batch {
                store.solver_put(*fp, result.clone());
            }
            // One put, an eviction down to the cap, then a second put that
            // may re-store a key the eviction just tombstoned.
            let (first, second) = jobs[seq % jobs.len()];
            for (step, job) in [first, second].into_iter().enumerate() {
                store.pipeline_put(
                    &specs[job],
                    entry("proved", &format!("P{job} batch {seq}\n"), Some(vec![])),
                );
                store.stamp_served(&specs[job], seq as u64 + 1);
                if step == 0 {
                    store.evict_pipeline_lru(cap);
                }
            }
            store.flush().expect("flush succeeds");
        }

        let reloaded = VerdictStore::load(&path);
        prop_assert!(reloaded.load_note().is_none());
        let recovered = QueryMemo::default();
        reloaded.warm_memo(&recovered);
        let expected = QueryMemo::default();
        expected.absorb(entries.clone());
        prop_assert_eq!(recovered.snapshot(), expected.snapshot());
        // Pipeline tier: the replayed log holds exactly the live entries,
        // so it encodes to the image one flush of the live store writes.
        prop_assert_eq!(reloaded.encode(), store.encode());
        prop_assert_eq!(reloaded.logged_entries(), store.logged_entries());
        let _ = std::fs::remove_file(&path);
    }
}

// ---------------------------------------------------------------------------
// End-to-end: a disk round trip preserves full warmth
// ---------------------------------------------------------------------------

/// The acceptance contract: re-verifying a corpus after a store round
/// trip does **zero** fresh solver validity queries — every check is a
/// memo hit — and the outcome digest is byte-identical.
#[test]
fn disk_round_trip_preserves_full_warmth() {
    let jobs: Vec<CorpusJob> = [corpus::laplace_mechanism(), corpus::partial_sum()]
        .iter()
        .map(|alg| CorpusJob::new(alg.source))
        .collect();
    let pipeline = Pipeline::new();

    let cold_memo = Arc::new(QueryMemo::default());
    let cold = pipeline.verify_corpus_parallel_with_memo(&jobs, Some(1), &cold_memo);
    assert!(cold.solver_stats.theory_calls > 0);

    let path = temp_path("warmth");
    let mut store = VerdictStore::load(&path);
    store.update_from_memo(&cold_memo);
    store.flush().expect("flush succeeds");

    // A different process would do exactly this: load, warm, re-verify.
    let reloaded = VerdictStore::load(&path);
    let warm_memo = Arc::new(QueryMemo::default());
    reloaded.warm_memo(&warm_memo);
    let warm = pipeline.verify_corpus_parallel_with_memo(&jobs, Some(2), &warm_memo);

    assert_eq!(cold.digest(), warm.digest());
    let stats = warm.solver_stats;
    assert_eq!(
        stats.theory_calls, 0,
        "fresh solver work after warm load: {stats:?}"
    );
    assert_eq!(stats.cache_hits, stats.checks, "{stats:?}");
    let _ = std::fs::remove_file(&path);
}

/// Same contract through the *incremental* path: a drained dirty delta
/// appended to the log carries full warmth, and compaction (with the
/// jobs' dependency sets recorded) keeps exactly the entries the corpus
/// needs.
#[test]
fn incremental_flush_and_compaction_preserve_warmth() {
    let jobs: Vec<CorpusJob> = [corpus::laplace_mechanism(), corpus::partial_sum()]
        .iter()
        .map(|alg| CorpusJob::new(alg.source))
        .collect();
    let pipeline = Pipeline::new();

    let path = temp_path("inc-warmth");
    let mut store = VerdictStore::load(&path);
    let memo = Arc::new(QueryMemo::default());

    // Two batches, each flushed incrementally with recorded deps.
    let mut digests = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let outcome =
            pipeline.verify_corpus_parallel_with_memo(std::slice::from_ref(job), Some(1), &memo);
        let report = outcome.reports[0].as_ref().expect("job verifies");
        digests.push(outcome.digest());
        store.pipeline_put(
            &JobSpec::new(job.source.clone()),
            entry(
                "proved",
                &outcome.report_digest(0),
                Some(report.solver_fingerprints.clone()),
            ),
        );
        let absorbed = store.absorb_dirty(&memo);
        assert!(absorbed > 0, "batch {i} solved something new");
        store.flush().expect("incremental flush succeeds");
    }
    let stats = store.compact().expect("compaction succeeds");
    assert_eq!(
        stats.dropped_solver, 0,
        "every solver entry is reachable from a recorded job: {stats:?}"
    );

    // Restart: load, warm, re-verify — zero fresh theory work.
    let reloaded = VerdictStore::load(&path);
    assert!(reloaded.load_note().is_none());
    assert_eq!(reloaded.solver_len(), store.solver_len());
    let warm_memo = Arc::new(QueryMemo::default());
    reloaded.warm_memo(&warm_memo);
    for (i, job) in jobs.iter().enumerate() {
        let warm = pipeline.verify_corpus_parallel_with_memo(
            std::slice::from_ref(job),
            Some(1),
            &warm_memo,
        );
        assert_eq!(warm.digest(), digests[i]);
        assert_eq!(warm.solver_stats.theory_calls, 0, "{:?}", warm.solver_stats);
    }
    let _ = std::fs::remove_file(&path);
}

/// The dangling-deps regression: solver entries stranded by a job that
/// produced no verdict are dropped by compaction — but a later job whose
/// queries are all *memo hits* on those same entries must re-persist
/// them ([`VerdictStore::ensure_deps`]), or its pipeline entry's deps
/// would reference verdicts the store no longer has and a restart would
/// quietly re-prove them.
#[test]
fn memo_served_deps_survive_an_earlier_compaction_drop() {
    let path = temp_path("dangling");
    let memo = QueryMemo::default();

    // Batch 1: solver work lands in the memo and the store, but the job
    // fails before a verdict — its pipeline entry pins nothing.
    let orphan_spec = JobSpec::new("function Broken() returns o: num(0,0) { o := x; }");
    let mut store = VerdictStore::load(&path);
    for fp in [Fingerprint(1), Fingerprint(2)] {
        memo.absorb([(fp, CheckResult::Unsat)]);
        store.solver_put(fp, CheckResult::Unsat);
    }
    store.pipeline_put(
        &orphan_spec,
        entry("error: unbound x", "error\n", Some(vec![])),
    );
    store.flush().unwrap();

    // Compaction drops the two entries: no pipeline entry reaches them.
    let stats = store.compact().unwrap();
    assert_eq!(stats.dropped_solver, 2, "{stats:?}");
    assert_eq!(store.solver_len(), 0);

    // Batch 2: a fixed job answers both queries from the live memo (no
    // fresh solves, so nothing is dirty) and records them as deps.
    let fixed_spec = JobSpec::new("function Fixed() returns o: num(0,0) { o := 0; }");
    let deps = vec![Fingerprint(1), Fingerprint(2)];
    store.ensure_deps(&memo, &deps);
    store.pipeline_put(
        &fixed_spec,
        entry("proved", "Fixed Proved\n", Some(deps.clone())),
    );
    store.flush().unwrap();

    // No dangling deps: the entries are back, compaction keeps them, and
    // a restart serves them.
    let stats = store.compact().unwrap();
    assert_eq!(stats.dropped_solver, 0, "{stats:?}");
    let reloaded = VerdictStore::load(&path);
    assert_eq!(reloaded.solver_len(), 2);
    let recovered = QueryMemo::default();
    reloaded.warm_memo(&recovered);
    assert_eq!(recovered.len(), 2);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Torn-tail tolerance
// ---------------------------------------------------------------------------

fn flushed_store_bytes(path: &PathBuf) -> Vec<u8> {
    use shadowdp_solver::{Solver, Term};
    let memo = Arc::new(QueryMemo::default());
    let solver = Solver::with_memo(memo.clone());
    let x = Term::real_var("x");
    for i in 0..8 {
        let _ = solver.check(&[x.le(Term::int(i))]);
    }
    let mut store = VerdictStore::load(path);
    store.update_from_memo(&memo);
    store.pipeline_put(
        &JobSpec::new("function F() returns o: num(0,0) { o := 0; }"),
        entry("proved", "F Proved\n", Some(solver.touched_fingerprints())),
    );
    store.flush().expect("flush succeeds");
    std::fs::read(path).expect("store file exists")
}

/// Truncating a single-record log anywhere behind the header loses the
/// record but keeps a *working* store (with a note); cutting into the
/// header itself is a noted cold start. No truncation point panics or
/// half-loads.
#[test]
fn truncated_store_recovers_the_valid_prefix() {
    let path = temp_path("trunc");
    let bytes = flushed_store_bytes(&path);
    assert!(bytes.len() > 32);
    const HEADER: usize = 8; // b"SDPVERD2"
    for len in [0, 1, 7, 8, HEADER + 1, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..len]).unwrap();
        let store = VerdictStore::load(&path);
        assert_eq!(
            store.solver_len(),
            0,
            "truncation to {len} drops the record"
        );
        assert_eq!(store.pipeline_len(), 0);
        if len == HEADER {
            // Exactly the header is a legitimately empty log.
            assert!(store.load_note().is_none());
        } else {
            assert!(
                store.load_note().is_some(),
                "truncation to {len} must be noted"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// A flipped byte behind the header fails that record's checksum and
/// drops it (noted); a flipped header byte is a noted cold start; and a
/// file that is not a store at all is a noted cold start. Never a panic,
/// never a half-merged record.
#[test]
fn corrupted_store_degrades_cleanly() {
    let path = temp_path("corrupt");
    let bytes = flushed_store_bytes(&path);
    for i in (0..bytes.len()).step_by(3) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x55;
        std::fs::write(&path, &corrupt).unwrap();
        let store = VerdictStore::load(&path);
        assert_eq!(store.solver_len(), 0, "flip at {i} must drop the record");
        assert_eq!(store.pipeline_len(), 0);
        assert!(store.load_note().is_some(), "flip at {i} must be noted");
    }
    // And a file that is not a store at all.
    std::fs::write(&path, b"definitely not a verdict store").unwrap();
    let store = VerdictStore::load(&path);
    assert_eq!(store.solver_len(), 0);
    assert!(store.load_note().is_some());
    let _ = std::fs::remove_file(&path);
}

/// Damage to a *later* record must not take earlier records with it: the
/// log replays up to the last valid record.
#[test]
fn torn_tail_truncates_to_the_last_valid_record() {
    let path = temp_path("tail");
    let mut store = VerdictStore::load(&path);
    store.solver_put(Fingerprint(1), CheckResult::Unsat);
    store.flush().unwrap(); // base record
    let base = std::fs::read(&path).unwrap();
    store.solver_put(Fingerprint(2), CheckResult::Unsat);
    store.pipeline_put(
        &JobSpec::new("function F() returns o: num(0,0) { o := 0; }"),
        entry("proved", "F Proved\n", Some(vec![Fingerprint(2)])),
    );
    store.flush().unwrap(); // delta record
    let full = std::fs::read(&path).unwrap();
    assert!(full.len() > base.len());

    // Truncating to exactly the base record is a legitimately complete
    // log; every cut *into* the delta record drops it with a note.
    for len in (base.len() + 1)..full.len() {
        std::fs::write(&path, &full[..len]).unwrap();
        let reloaded = VerdictStore::load(&path);
        assert_eq!(reloaded.solver_len(), 1, "truncation to {len}");
        assert_eq!(reloaded.pipeline_len(), 0);
        assert!(reloaded.load_note().is_some(), "dropped tail is noted");

        // …and the recovered store keeps working: the next flush drops
        // the torn tail and appends cleanly.
        let mut recovered = VerdictStore::load(&path);
        recovered.solver_put(Fingerprint(3), CheckResult::Unsat);
        recovered.flush().unwrap();
        let healed = VerdictStore::load(&path);
        assert!(healed.load_note().is_none(), "truncation to {len} healed");
        assert_eq!(healed.solver_len(), 2);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_store_is_a_quiet_cold_start() {
    let store = VerdictStore::load(temp_path("missing"));
    assert_eq!(store.solver_len(), 0);
    assert!(store.load_note().is_none(), "a first run is not an error");
}

// ---------------------------------------------------------------------------
// Append atomicity: a crash at any byte of a delta append recovers to
// the pre- or post-append view
// ---------------------------------------------------------------------------

/// Compact comparable view of a store's contents: the solver tier, the
/// pipeline-tier size, and the digests the first three probe specs map
/// to (`None` = absent or evicted).
type View = (Vec<(Fingerprint, CheckResult)>, usize, Vec<Option<String>>);

fn view(store: &VerdictStore) -> View {
    let memo = QueryMemo::default();
    store.warm_memo(&memo);
    let probes = (0..3)
        .map(|i| store.pipeline_get(&probe_spec(i)).map(|e| e.digest.clone()))
        .collect();
    (memo.snapshot(), store.pipeline_len(), probes)
}

/// Every prefix of `post_bytes` past `pre_bytes` (an append that died
/// after that many bytes) must load as exactly the pre or the post view,
/// and only the complete append as post.
fn assert_every_torn_append_is_pre_or_post(path: &PathBuf, pre_bytes: &[u8], post_bytes: &[u8]) {
    let load_view = |bytes: &[u8]| {
        std::fs::write(path, bytes).unwrap();
        view(&VerdictStore::load(path))
    };
    let pre_view = load_view(pre_bytes);
    let post_view = load_view(post_bytes);
    assert_ne!(pre_view, post_view);
    assert_eq!(&post_bytes[..pre_bytes.len()], pre_bytes, "append-only");
    for len in pre_bytes.len()..=post_bytes.len() {
        let recovered = load_view(&post_bytes[..len]);
        assert!(
            recovered == pre_view || recovered == post_view,
            "crash at byte {len} produced a third state"
        );
        // Completeness is all-or-nothing: only the full append is post.
        if len < post_bytes.len() {
            assert_eq!(recovered, pre_view, "partial append at {len} must be pre");
        }
    }
}

#[test]
fn killed_append_recovers_pre_or_post_view_at_every_byte() {
    let path = temp_path("kill-append");
    let mut store = VerdictStore::load(&path);
    for i in 0..6u128 {
        store.solver_put(Fingerprint(i), CheckResult::Unsat);
    }
    for i in [1, 2] {
        store.pipeline_put(
            &probe_spec(i),
            entry("proved", &format!("P{i}\n"), Some(vec![])),
        );
        store.stamp_served(&probe_spec(i), i as u64);
    }
    store.flush().unwrap();
    let pre_bytes = std::fs::read(&path).unwrap();

    // A plain delta: new entries only.
    store.solver_put(Fingerprint(100), CheckResult::Unsat);
    store.pipeline_put(
        &probe_spec(0),
        entry("proved", "F Proved\n", Some(vec![Fingerprint(100)])),
    );
    store.stamp_served(&probe_spec(0), 3);
    store.flush().unwrap();
    let mid_bytes = std::fs::read(&path).unwrap();
    assert_every_torn_append_is_pre_or_post(&path, &pre_bytes, &mid_bytes);

    // A delta that carries an eviction: a new entry and the tombstone of
    // the coldest one (probe 1) must land together or not at all.
    std::fs::write(&path, &mid_bytes).unwrap();
    store.solver_put(Fingerprint(101), CheckResult::Unsat);
    store.pipeline_put(&probe_spec(3), entry("proved", "P3\n", Some(vec![])));
    store.stamp_served(&probe_spec(3), 4);
    assert_eq!(store.evict_pipeline_lru(3), 1);
    store.flush().unwrap();
    let post_bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        post_bytes[mid_bytes.len() + 4],
        2,
        "an evicting delta is kind 2"
    );
    let post = VerdictStore::load(&path);
    assert!(
        post.pipeline_get(&probe_spec(1)).is_none(),
        "tombstone replayed"
    );
    assert_eq!(post.pipeline_len(), 3);
    assert_every_torn_append_is_pre_or_post(&path, &mid_bytes, &post_bytes);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Compaction atomicity: a rewrite killed at any byte offset leaves the
// pre- or post-compaction view, never a corrupt one
// ---------------------------------------------------------------------------

#[test]
fn killed_compaction_recovers_pre_or_post_view_at_every_byte() {
    // Build a log with superseded weight: a base record plus several
    // delta records overwriting one pipeline key.
    let path = temp_path("kill-compact");
    let spec = JobSpec::new("function F() returns o: num(0,0) { o := 0; }");
    let mut store = VerdictStore::load(&path);
    for i in 0..4u128 {
        store.solver_put(Fingerprint(i), CheckResult::Unsat);
        store.solver_put(Fingerprint(1000 + i), CheckResult::Unsat); // orphans
        store.pipeline_put(
            &spec,
            entry(
                "proved",
                &format!("F Proved round {i}\n"),
                Some((0..=i).map(Fingerprint).collect()),
            ),
        );
        store.flush().unwrap();
    }
    let pre_bytes = std::fs::read(&path).unwrap();
    let pre_view = view(&VerdictStore::load(&path));

    // The post-compaction image: what `compact()` stages into the temp
    // file (compact on a copy of the store so `pre` stays on disk).
    let stats = store.compact().unwrap();
    assert_eq!(stats.dropped_solver, 4, "orphans dropped: {stats:?}");
    let post_bytes = std::fs::read(&path).unwrap();
    let post_view = view(&VerdictStore::load(&path));
    assert!(post_bytes.len() < pre_bytes.len());
    assert_ne!(pre_view, post_view);

    let tmp = {
        let mut name = path.file_name().unwrap().to_os_string();
        name.push(".tmp");
        path.with_file_name(name)
    };

    // Phase 1 — killed while staging the temp file, at every byte offset:
    // the store path still holds the old log; the partial temp must be
    // ignored entirely.
    for len in 0..=post_bytes.len() {
        std::fs::write(&path, &pre_bytes).unwrap();
        std::fs::write(&tmp, &post_bytes[..len]).unwrap();
        let recovered = view(&VerdictStore::load(&path));
        assert_eq!(recovered, pre_view, "staging crash at byte {len}");
    }

    // Phase 2 — killed after the rename: the store path holds the new
    // log; temp debris is gone or irrelevant.
    std::fs::write(&path, &post_bytes).unwrap();
    let _ = std::fs::remove_file(&tmp);
    assert_eq!(view(&VerdictStore::load(&path)), post_view);

    // And a store that recovered from a staging crash keeps working: the
    // next compaction replaces both the log and the stale temp debris.
    std::fs::write(&path, &pre_bytes).unwrap();
    std::fs::write(&tmp, &post_bytes[..post_bytes.len() / 2]).unwrap();
    let mut recovered = VerdictStore::load(&path);
    recovered.compact().expect("compaction over stale temp");
    assert_eq!(view(&VerdictStore::load(&path)), post_view);
    assert!(!tmp.exists(), "temp staging file consumed by rename");

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&tmp);
}

// ---------------------------------------------------------------------------
// Format stability: eviction-free logs keep their bytes; v1 is retired
// ---------------------------------------------------------------------------

/// A log that never evicted is byte for byte the encoding that predates
/// tombstones: a base record and a kind-1 delta, spelled out field by
/// field here independently of the store's encoder.
#[test]
fn eviction_free_log_encodes_byte_for_byte_as_before() {
    let path = temp_path("golden");
    let mut store = VerdictStore::load(&path);
    store.solver_put(Fingerprint(7), CheckResult::Unsat);
    store.pipeline_put(
        &probe_spec(0),
        entry("proved", "F Proved\n", Some(vec![Fingerprint(7)])),
    );
    store.flush().unwrap(); // first flush: base record
    let model = Model {
        reals: BTreeMap::from([("x".to_string(), Rat::new(-7, 3))]),
        bools: BTreeMap::from([("p".to_string(), true)]),
        possibly_spurious: false,
    };
    store.solver_put(Fingerprint(9), CheckResult::Sat(model));
    store.pipeline_put(&probe_spec(1), entry("refuted: x", "G\n", None));
    store.flush().unwrap(); // delta record

    fn string(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    fn frame(out: &mut Vec<u8>, payload: &[u8]) {
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&shadowdp_service::fnv128(payload).to_le_bytes());
    }
    let key = |i| VerdictStore::job_key(&probe_spec(i)).to_le_bytes();

    let mut base = vec![0u8]; // kind: base
    base.extend_from_slice(&1u64.to_le_bytes());
    base.extend_from_slice(&7u128.to_le_bytes());
    base.push(0); // Unsat
    base.extend_from_slice(&1u64.to_le_bytes());
    base.extend_from_slice(&key(0));
    base.push(1); // ok
    string(&mut base, "proved");
    string(&mut base, "F Proved\n");
    base.push(1); // deps known
    base.extend_from_slice(&1u64.to_le_bytes());
    base.extend_from_slice(&7u128.to_le_bytes());

    let mut delta = vec![1u8]; // kind: delta
    delta.extend_from_slice(&1u64.to_le_bytes());
    delta.extend_from_slice(&9u128.to_le_bytes());
    delta.push(1); // Sat
    delta.push(0); // not spurious
    delta.extend_from_slice(&1u32.to_le_bytes());
    string(&mut delta, "x");
    delta.extend_from_slice(&(-7i128).to_le_bytes());
    delta.extend_from_slice(&3i128.to_le_bytes());
    delta.extend_from_slice(&1u32.to_le_bytes());
    string(&mut delta, "p");
    delta.push(1);
    delta.extend_from_slice(&1u64.to_le_bytes());
    delta.extend_from_slice(&key(1));
    delta.push(1); // ok
    string(&mut delta, "refuted: x");
    string(&mut delta, "G\n");
    delta.push(0); // deps unknown

    let mut expected = b"SDPVERD2".to_vec();
    frame(&mut expected, &base);
    frame(&mut expected, &delta);
    assert_eq!(std::fs::read(&path).unwrap(), expected);
    let _ = std::fs::remove_file(&path);
}

/// The retired whole-image format (`SDPVERD1`) is no longer read: such a
/// file is a noted cold start, like any other bad header, and the next
/// flush replaces it with a v2 log.
#[test]
fn v1_store_is_a_cold_start() {
    let mut bytes = b"SDPVERD1".to_vec();
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&3u128.to_le_bytes());
    bytes.push(0); // Unsat
    bytes.extend_from_slice(&0u64.to_le_bytes());
    let sum = shadowdp_service::fnv128(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    let path = temp_path("v1-cold");
    std::fs::write(&path, &bytes).unwrap();

    let mut store = VerdictStore::load(&path);
    assert_eq!(store.solver_len(), 0);
    assert_eq!(store.pipeline_len(), 0);
    let note = store.load_note().expect("a v1 file is noted");
    assert!(note.contains("bad magic"), "{note}");

    store.solver_put(Fingerprint(77), CheckResult::Unsat);
    store.flush().unwrap();
    let reloaded = VerdictStore::load(&path);
    assert!(reloaded.load_note().is_none());
    assert_eq!(reloaded.solver_len(), 1);
    assert!(std::fs::read(&path).unwrap().starts_with(b"SDPVERD2"));
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// FaultPlan ports of the kill sweeps: the same atomicity contracts, but
// driven through the injection sites of `shadowdp_fault` — the mechanism
// the daemon soak and the fault matrix use — so the crash scenarios stay
// reproducible without byte-surgery on the log file.
// ---------------------------------------------------------------------------

use shadowdp_fault::{FaultKind, FaultPlan};

#[test]
fn faultplan_torn_append_recovers_the_valid_prefix_at_any_tear() {
    // `keep = 0` tears before any byte lands; `u64::MAX` writes the whole
    // delta and errors after (the lost-fsync analogue). Every tear must
    // leave exactly the pre-append view on disk, with the dirty delta
    // retained in memory so a retry heals to post.
    for keep in [0u64, 1, 3, 4, 17, 40, u64::MAX] {
        let path = temp_path("fault-torn-append");
        let mut store = VerdictStore::load(&path);
        for i in 0..6u128 {
            store.solver_put(Fingerprint(i), CheckResult::Unsat);
        }
        store.flush().unwrap();
        let pre_view = view(&VerdictStore::load(&path));
        store.solver_put(Fingerprint(100), CheckResult::Unsat);

        let guard = FaultPlan::new()
            .once("store.append.write", FaultKind::TornWrite { keep })
            .install();
        let err = store.flush().expect_err("torn append must error");
        drop(guard);
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert_eq!(view(&VerdictStore::load(&path)), pre_view, "tear at {keep}");
        assert!(store.dirty_len() > 0, "delta retained after tear at {keep}");

        store.flush().expect("retry heals");
        let healed = view(&VerdictStore::load(&path));
        assert_eq!(healed.0.len(), 7, "retry after tear at {keep} reaches post");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn faultplan_torn_compaction_is_atomic() {
    for keep in [0u64, 1, 9, 33, u64::MAX] {
        let path = temp_path("fault-torn-compact");
        let spec = JobSpec::new("function F() returns o: num(0,0) { o := 0; }");
        let mut store = VerdictStore::load(&path);
        // Every delta references all four fingerprints, so compaction
        // drops no solver entries and the live view is invariant across
        // the collapse — one expected view serves fault and retry alike.
        for i in 0..4u128 {
            store.solver_put(Fingerprint(i), CheckResult::Unsat);
            store.pipeline_put(
                &spec,
                entry(
                    "proved",
                    &format!("F Proved round {i}\n"),
                    Some((0..4).map(Fingerprint).collect()),
                ),
            );
            store.flush().unwrap();
        }
        let live_view = view(&VerdictStore::load(&path));

        let guard = FaultPlan::new()
            .once("store.rewrite.write", FaultKind::TornWrite { keep })
            .install();
        let err = store.compact().expect_err("torn rewrite must error");
        drop(guard);
        assert!(err.to_string().contains("injected fault"), "{err}");
        // The rename never ran: the old log is still authoritative.
        assert_eq!(
            view(&VerdictStore::load(&path)),
            live_view,
            "tear at {keep}"
        );

        store.compact().expect("retry heals");
        assert_eq!(
            view(&VerdictStore::load(&path)),
            live_view,
            "view preserved across retried compaction at {keep}"
        );
        let tmp = {
            let mut name = path.file_name().unwrap().to_os_string();
            name.push(".tmp");
            path.with_file_name(name)
        };
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&tmp);
    }
}

/// A failed append that carries evictions keeps them pending: the evicted
/// entry is still on disk, and the retry persists its tombstone.
#[test]
fn faultplan_torn_append_keeps_pending_evictions() {
    for keep in [0u64, 5, u64::MAX] {
        let path = temp_path("fault-torn-evict");
        let mut store = VerdictStore::load(&path);
        for i in 0..2 {
            store.pipeline_put(
                &probe_spec(i),
                entry("proved", &format!("P{i}\n"), Some(vec![])),
            );
            store.stamp_served(&probe_spec(i), i as u64 + 1);
        }
        store.flush().unwrap();
        let pre_view = view(&VerdictStore::load(&path));
        assert_eq!(store.evict_pipeline_lru(1), 1, "evicts the colder probe 0");

        let guard = FaultPlan::new()
            .once("store.append.write", FaultKind::TornWrite { keep })
            .install();
        let err = store.flush().expect_err("torn append must error");
        drop(guard);
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert_eq!(view(&VerdictStore::load(&path)), pre_view, "tear at {keep}");
        assert_eq!(
            store.dirty_len(),
            1,
            "tombstone retained after tear at {keep}"
        );

        store.flush().expect("retry heals");
        let healed = VerdictStore::load(&path);
        assert!(
            healed.pipeline_get(&probe_spec(0)).is_none(),
            "tear at {keep}"
        );
        assert!(healed.pipeline_get(&probe_spec(1)).is_some());
        assert_eq!(healed.pipeline_len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
