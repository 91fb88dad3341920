//! Sample arithmetic, the seeded generator, machine-speed normalization
//! and failure accounting.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between the two closest ranks.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample set");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// splitmix64: the benchmark's only source of input variation, so one
/// seed always yields the same job orders and round make-ups.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        self.shuffle(&mut order);
        order
    }
}

/// Converts measured times to nominal machine speed: every time is
/// multiplied by `nominal / measured` calibration-kernel time.
#[derive(Clone, Copy, Debug)]
pub struct Speed {
    factor: f64,
}

impl Speed {
    /// The correction for kernel samples measured beside the workload.
    pub fn from_kernel(nominal_us: f64, kernel_us: &[f64]) -> Speed {
        Speed {
            factor: nominal_us / median(kernel_us),
        }
    }

    /// `nominal / measured` kernel time.
    pub fn factor(self) -> f64 {
        self.factor
    }

    /// A measured duration at nominal speed.
    pub fn time(self, raw: f64) -> f64 {
        raw * self.factor
    }
}

/// Why an operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The verdict differs from the corpus's `Expected`.
    WrongVerdict,
    /// The report digest differs from the reference run's.
    DigestMismatch,
    /// The pipeline returned an error the corpus does not expect.
    PipelineError,
    /// The job panicked.
    Crashed,
    /// A warm pass made theory calls, so its memo did not answer it.
    CacheMiss,
    /// The daemon answered `ERR` or dropped the connection.
    DaemonErr,
    /// `SUBMIT` stayed `BUSY` past the client's retry budget.
    Busy,
    /// A daemon round outlived its deadline.
    Timeout,
}

impl Failure {
    const ALL: [Failure; 8] = [
        Failure::WrongVerdict,
        Failure::DigestMismatch,
        Failure::PipelineError,
        Failure::Crashed,
        Failure::CacheMiss,
        Failure::DaemonErr,
        Failure::Busy,
        Failure::Timeout,
    ];

    fn name(self) -> &'static str {
        match self {
            Failure::WrongVerdict => "wrong_verdict",
            Failure::DigestMismatch => "digest_mismatch",
            Failure::PipelineError => "pipeline_error",
            Failure::Crashed => "crashed",
            Failure::CacheMiss => "cache_miss",
            Failure::DaemonErr => "daemon_err",
            Failure::Busy => "busy",
            Failure::Timeout => "timeout",
        }
    }
}

/// Operations attempted and failed, by failure class.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations (verification jobs) attempted.
    pub attempted: u64,
    failed: [u64; Failure::ALL.len()],
}

impl Tally {
    /// Counts one attempted operation and its failure, if any.
    pub fn record(&mut self, failure: Option<Failure>) {
        self.attempted += 1;
        if let Some(f) = failure {
            self.failed[f as usize] += 1;
        }
    }

    /// Operations that failed, all classes together.
    pub fn failed(&self) -> u64 {
        self.failed.iter().sum()
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        for (a, b) in self.failed.iter_mut().zip(other.failed) {
            *a += b;
        }
    }

    /// `attempted,failed-per-class…`, as [`Tally::decode`] reads it.
    pub fn encode(&self) -> String {
        std::iter::once(self.attempted)
            .chain(self.failed)
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Reads [`Tally::encode`]'s form.
    pub fn decode(s: &str) -> Option<Tally> {
        let counts: Vec<u64> = s
            .split(',')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        let (&attempted, failed) = counts.split_first()?;
        Some(Tally {
            attempted,
            failed: failed.try_into().ok()?,
        })
    }

    /// One `class=count` line, every class listed.
    pub fn render(&self) -> String {
        Failure::ALL
            .iter()
            .map(|f| format!("{}={}", f.name(), self.failed[*f as usize]))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        // 0.9 of ranks 0..=9 is rank 8.1: between 9 and 10.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&ten, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn normalization_scales_times_to_nominal_speed() {
        // Kernel measured at twice its nominal time: the machine ran at
        // half speed, so times halve.
        let speed = Speed::from_kernel(3000.0, &[6100.0, 6000.0, 5900.0]);
        assert_eq!(speed.factor(), 0.5);
        assert_eq!(speed.time(40.0), 20.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn one_seed_yields_one_job_sequence() {
        let orders = |seed| {
            let mut rng = Rng::new(seed);
            (0..50).map(|_| rng.permutation(18)).collect::<Vec<_>>()
        };
        assert_eq!(orders(7), orders(7));
        assert_ne!(orders(7), orders(8));
        for order in orders(7) {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..18).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tally_counts_every_class() {
        let mut t = Tally::default();
        t.record(None);
        t.record(Some(Failure::DigestMismatch));
        t.record(Some(Failure::Timeout));
        assert_eq!((t.attempted, t.failed()), (3, 2));
        assert!(t.render().contains("digest_mismatch=1"));
        assert!(t.render().contains("timeout=1"));
        assert!(t.render().contains("busy=0"));
        let mut merged = Tally::decode(&t.encode()).expect("round-trips");
        merged.merge(&t);
        assert_eq!((merged.attempted, merged.failed()), (6, 4));
        assert!(Tally::decode("1,2").is_none());
    }
}
