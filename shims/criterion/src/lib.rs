//! Offline stand-in for the subset of the `criterion` API the workspace's
//! benches use. Each sample times a batch of back-to-back calls of the
//! routine, sized so that one batch takes about [`SAMPLE_TARGET`], and the
//! benchmark prints the median time per call; there is no statistics engine
//! and no report directory. A routine of a few nanoseconds is therefore
//! timed over about a million calls per sample, not across one
//! `Instant::now` pair, while a routine slower than the target runs once
//! per sample.

use std::fmt::{self, Display};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// The driver handed to every bench function.
pub struct Criterion;

impl Criterion {
    /// Opens a named group of benchmarks sharing one sample count.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            samples: 10,
        }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function(&mut self, id: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run(id, 10, f);
        self
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup {
    name: String,
    samples: usize,
}

impl BenchmarkGroup {
    /// Sets the number of timed samples per benchmark (at least 1).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Runs one benchmark of the group.
    pub fn bench_function(&mut self, id: impl Display, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run(&format!("{}/{id}", self.name), self.samples, f);
        self
    }

    /// Runs one benchmark of the group on a borrowed input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Display,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// A benchmark name with a parameter, printed as `name/parameter`.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Names a benchmark after a function and its parameter.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId(format!("{}/{parameter}", function.into()))
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The wall time one sample's batch of calls aims at.
pub const SAMPLE_TARGET: Duration = Duration::from_millis(5);

/// Times the routine of one sample.
pub struct Bencher {
    /// Calls of the routine per sample.
    batch: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times one batch of back-to-back calls of `routine`.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.batch {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// The wall time of one sample of `batch` calls.
fn sample(f: &mut impl FnMut(&mut Bencher), batch: u64) -> Duration {
    let mut b = Bencher {
        batch,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    b.elapsed
}

fn run(id: &str, samples: usize, mut f: impl FnMut(&mut Bencher)) {
    // size the batch by doubling until one batch takes the target; these
    // sizing batches double as the warm-up
    let mut batch = 1u64;
    while sample(&mut f, batch) < SAMPLE_TARGET && batch < 1 << 30 {
        batch *= 2;
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| sample(&mut f, batch).as_secs_f64() / batch as f64)
        .collect();
    per_call.sort_by(f64::total_cmp);
    println!(
        "{id:<60} median {:?} per call ({batch} calls x {samples} samples)",
        Duration::from_secs_f64(per_call[samples / 2])
    );
}

/// Bundles bench functions into one group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion;
            $($target(&mut c);)+
        }
    };
}

/// Generates the bench binary's `main` over the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
