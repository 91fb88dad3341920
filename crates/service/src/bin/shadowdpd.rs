//! The verification daemon binary.
//!
//! ```text
//! shadowdpd --socket <path> [--store <path>] [--threads <n>] [--compact-ratio <r>]
//!           [--queue-limit <n>] [--io-timeout-ms <ms>]
//!           [--store-max-pipeline-entries <n>]
//! ```
//!
//! Listens on the Unix socket, schedules submitted jobs in batches, and
//! persists verdicts to the store — an append-only record log that is
//! compacted when it holds more than `r` times as many logged entries as
//! live ones (default 2; `inf` disables ratio-triggered compaction —
//! clean shutdown still compacts). `--queue-limit` bounds the submission
//! queue (`SUBMIT` past it answers `BUSY`); `--io-timeout-ms` puts
//! read/write deadlines on daemon-side connection sockets;
//! `--store-max-pipeline-entries` caps the pipeline tier of the store,
//! evicting the least recently served entries past the cap at startup
//! and after each batch. See `shadowdp_service` for the protocol and
//! formats. Exits on a client
//! `SHUTDOWN`.

use std::path::PathBuf;
use std::process::ExitCode;

use shadowdp_service::daemon::{self, DaemonConfig, DEFAULT_COMPACT_RATIO};

fn usage() -> ExitCode {
    eprintln!(
        "usage: shadowdpd --socket <path> [--store <path>] [--threads <n>] [--compact-ratio <r>] \
         [--queue-limit <n>] [--io-timeout-ms <ms>] [--store-max-pipeline-entries <n>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut socket: Option<PathBuf> = None;
    let mut store: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut compact_ratio: f64 = DEFAULT_COMPACT_RATIO;
    let mut queue_limit: Option<usize> = None;
    let mut io_timeout: Option<std::time::Duration> = None;
    let mut max_pipeline_entries: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => socket = args.next().map(PathBuf::from),
            "--store" => store = args.next().map(PathBuf::from),
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => threads = Some(n),
                None => return usage(),
            },
            "--queue-limit" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => queue_limit = Some(n),
                None => return usage(),
            },
            // A zero cap would evict every entry after every batch —
            // a config mistake, not a meaningful bound.
            "--store-max-pipeline-entries" => {
                match args.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => max_pipeline_entries = Some(n),
                    _ => return usage(),
                }
            }
            "--io-timeout-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                // A zero socket timeout is an error at `set_read_timeout`
                // time; catch the config mistake here instead.
                Some(ms) if ms > 0 => io_timeout = Some(std::time::Duration::from_millis(ms)),
                _ => return usage(),
            },
            "--compact-ratio" => {
                let Some(raw) = args.next() else {
                    eprintln!("shadowdpd: --compact-ratio needs a value");
                    return usage();
                };
                // A ratio below 1 would trigger an O(store) compaction
                // after every batch, and NaN would make the trigger
                // comparison silently false forever — both are config
                // mistakes worth a precise message, not a generic usage
                // line.
                match raw.parse::<f64>() {
                    Ok(r) if !r.is_nan() && r >= 1.0 => compact_ratio = r,
                    _ => {
                        eprintln!(
                            "shadowdpd: --compact-ratio must be a number >= 1 (got `{raw}`); \
                             `inf` disables ratio-triggered compaction"
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            _ => return usage(),
        }
    }
    let Some(socket) = socket else {
        return usage();
    };

    println!(
        "shadowdpd: listening on {} (store: {})",
        socket.display(),
        store
            .as_ref()
            .map_or_else(|| "in-memory".into(), |p| p.display().to_string())
    );
    match daemon::run(DaemonConfig {
        socket,
        store,
        threads,
        compact_ratio,
        queue_limit,
        io_timeout,
        max_pipeline_entries,
    }) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("shadowdpd: {e}");
            ExitCode::FAILURE
        }
    }
}
