//! The calibration kernel, timed beside the workload so every figure can
//! be reported at nominal machine speed.
//!
//! It shares no code with the program under test, so no change to the
//! program can move it, and it allocates nothing inside its timed
//! region.
//!
//! - **Compute part** (every workload): random read-modify-write updates
//!   over a private 2 MiB buffer per thread, on as many threads as the
//!   workload keeps busy. The buffer is about one core's L2, which is
//!   what makes the part track the verifier: measured against table1-warm
//!   passes over 10 s windows, its time moved in proportion to the
//!   passes', where a buffer well inside L2 moved half as much and one
//!   well beyond it (L3) less still. Like `verify_corpus_parallel`, the threads
//!   pull fixed-size chunks from one atomic cursor, and the part's time is
//!   the wall time from the first thread's start to the last one's end,
//!   so a vCPU that is slow or taken away stretches it the way it
//!   stretches a parallel pass.
//! - **I/O part** (`daemon-mixed` only): the kinds of system work one
//!   daemon round does, in about its amounts — 48 socket round trips to
//!   an echo thread (a round's `SUBMIT`s and `RESULT`s), 24 small synced
//!   appends (its journal appends) and 6 synced 256 KiB rewrite-and-rename
//!   passes (its store rewrites) on a private file. A round spends most of
//!   its time waiting on these, and their latency drifts independently of
//!   CPU speed.

use std::fs::File;
use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::Instant;

/// Nominal time of the compute part, in microseconds: a measured time is
/// scaled by `nominal / measured` kernel time.
pub const NOMINAL_US: f64 = 4000.0;

/// Nominal time of the I/O part, in microseconds.
pub const NOMINAL_IO_US: f64 = 6000.0;

/// Words of each thread's buffer: 2 MiB.
const WORDS: usize = 1 << 18;

/// Chunks per thread per kernel run.
const CHUNKS_PER_THREAD: usize = 32;

/// Buffer updates per chunk.
const STEPS: u32 = 1 << 14;

/// Socket round trips per I/O part.
const ROUND_TRIPS: usize = 48;

/// Synced small appends per I/O part, and their size.
const APPENDS: usize = 24;
const APPEND_BYTES: usize = 128;

/// Synced whole-file rewrites per I/O part, and their size.
const REWRITES: usize = 6;
const REWRITE_BYTES: usize = 256 << 10;

/// The I/O part's resources.
struct Io {
    ping: UnixStream,
    echo: Option<JoinHandle<()>>,
    /// The append target; rewrites go to its `.tmp` sibling, renamed
    /// over its `.log` sibling.
    path: PathBuf,
    append: File,
    block: Vec<u8>,
}

impl Drop for Io {
    fn drop(&mut self) {
        let _ = self.ping.shutdown(std::net::Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

/// Kernel buffers for one workload, plus every time measured so far.
pub struct Kernel {
    bufs: Vec<Vec<u64>>,
    io: Option<Io>,
    /// Kernel times (both parts) in microseconds.
    pub samples_us: Vec<f64>,
    /// The I/O part's share of each sample, in microseconds.
    pub io_us: Vec<f64>,
}

impl Kernel {
    /// A compute-only kernel for `threads` concurrent threads.
    pub fn new(threads: usize) -> Kernel {
        Kernel {
            bufs: (0..threads.max(1))
                .map(|t| (0..WORDS as u64).map(|i| i ^ (t as u64) << 32).collect())
                .collect(),
            io: None,
            samples_us: Vec::new(),
            io_us: Vec::new(),
        }
    }

    /// Adds the I/O part, with its files at `path` and siblings.
    ///
    /// # Errors
    ///
    /// The socket pair or the file cannot be created.
    pub fn with_io(&mut self, path: &Path) -> std::io::Result<()> {
        let (ping, mut pong) = UnixStream::pair()?;
        let echo = std::thread::spawn(move || {
            let mut byte = [0u8; 1];
            while pong.read_exact(&mut byte).is_ok() && pong.write_all(&byte).is_ok() {}
        });
        self.io = Some(Io {
            ping,
            echo: Some(echo),
            path: path.to_path_buf(),
            append: File::create(path)?,
            block: vec![0xA5; REWRITE_BYTES],
        });
        Ok(())
    }

    /// The kernel time that counts as nominal machine speed.
    pub fn nominal_us(&self) -> f64 {
        NOMINAL_US
            + if self.io.is_some() {
                NOMINAL_IO_US
            } else {
                0.0
            }
    }

    /// Runs the kernel once and records its time.
    ///
    /// # Panics
    ///
    /// If the I/O part's echo thread or files fail.
    pub fn sample(&mut self) {
        let compute = self.compute();
        let Some(io) = self.io.as_mut() else {
            self.samples_us.push(compute);
            return;
        };
        let io_time = io.run().expect("calibration I/O works");
        self.io_us.push(io_time);
        self.samples_us.push(compute + io_time);
    }

    /// The compute part's wall time in microseconds.
    fn compute(&mut self) -> f64 {
        let chunks = CHUNKS_PER_THREAD * self.bufs.len();
        let cursor = AtomicUsize::new(0);
        let barrier = Barrier::new(self.bufs.len());
        let spans: Vec<(Instant, Instant)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .bufs
                .iter_mut()
                .map(|buf| {
                    let (barrier, cursor) = (&barrier, &cursor);
                    scope.spawn(move || {
                        // Bring the buffer back into cache untimed, so the
                        // measured part does not depend on how much memory
                        // the workload touched before it.
                        black_box(buf.iter().step_by(8).fold(0u64, |a, w| a ^ w));
                        barrier.wait();
                        let start = Instant::now();
                        loop {
                            let chunk = cursor.fetch_add(1, Ordering::Relaxed);
                            if chunk >= chunks {
                                break;
                            }
                            black_box(run_chunk(buf, chunk as u64));
                        }
                        (start, Instant::now())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("kernel thread does not panic"))
                .collect()
        });
        let start = spans.iter().map(|s| s.0).min().expect("one kernel thread");
        let end = spans.iter().map(|s| s.1).max().expect("one kernel thread");
        (end - start).as_secs_f64() * 1e6
    }
}

impl Io {
    /// The I/O part's time in microseconds.
    fn run(&mut self) -> std::io::Result<f64> {
        let tmp = self.path.with_extension("tmp");
        let log = self.path.with_extension("log");
        let record = [0x5Au8; APPEND_BYTES];
        let mut byte = [7u8; 1];
        let start = Instant::now();
        for _ in 0..ROUND_TRIPS {
            self.ping.write_all(&byte)?;
            self.ping.read_exact(&mut byte)?;
        }
        for _ in 0..APPENDS {
            self.append.write_all(&record)?;
            self.append.sync_data()?;
        }
        for _ in 0..REWRITES {
            let mut file = File::create(&tmp)?;
            file.write_all(&self.block)?;
            file.sync_all()?;
            std::fs::rename(&tmp, &log)?;
        }
        let elapsed = start.elapsed().as_secs_f64() * 1e6;
        self.append.set_len(0)?;
        Ok(elapsed)
    }
}

/// xorshift-indexed multiply-accumulate over the buffer. The index is
/// reduced with a division, as measured.
fn run_chunk(buf: &mut [u64], chunk: u64) -> u64 {
    let len = buf.len() as u64;
    let mut x: u64 = 0x2545_F491_4F6C_DD1D ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut acc: u64 = 0;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut buf[((x >> 8) % len) as usize];
        let v = slot.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(x);
        *slot = v;
        acc = acc.rotate_left(5) ^ v;
    }
    acc
}
