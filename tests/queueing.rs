//! The pipeline engine's batch queue against queueing theory.
//!
//! One site fed by background traffic alone is an M/G/c queue: Poisson
//! arrivals, log-normal service times, `c` slots, first come first served.
//! Two of its figures are exact for any service law:
//!
//! - the mean wait for one slot, by the Pollaczek–Khinchine formula
//!   `W = λE[S²] / (2(1 − ρ))`, with `ρ = λE[S]`;
//! - the utilisation of the slots, `λE[S]/c`, for any `c`;
//! - Little's law `L = λW` for the waiting line, for any `c`.
//!
//! Every run starts empty, so the first tenth of its horizon is dropped as
//! warm-up, and waits are counted for arrivals before nine tenths, which
//! have all started by the horizon. The measured window is cut into
//! `BATCHES` equal batches. Successive waits are correlated, so a check
//! allows `Z` standard errors of the batch means around the exact value,
//! not the i.i.d. error of the individual waits. The seeds are fixed; a
//! correct engine lands outside `Z = 4` with probability below 0.1% (a
//! Student t with 19 degrees of freedom).
//!
//! Client jobs on the same pipeline meet two faults with configured
//! probabilities: a silent loss at submission, and a transient failure on
//! arrival at the WMS. Their counts are binomial, and each is checked
//! within `Z` of its binomial standard deviation (a normal tail below
//! 0.01% at `Z = 4`).
//!
//! The client path end to end: single-resubmission tasks whose timeout
//! lies past the horizon, started at Poisson instants, pass the UI hop,
//! match-making and dispatch (exponential delays, so their arrivals at the
//! batch queue are Poisson again) and wait in one M/G/1 queue with the
//! background traffic. Their mean latency is the three hop means plus the
//! Pollaczek–Khinchine wait of the mixed service law, checked like the
//! background wait above. A cancellation request lands after an
//! exponential delay of the configured mean: the mean is checked within
//! `Z` standard errors (an exponential's deviation is its mean), and the
//! law by a Kolmogorov–Smirnov test at the 0.01% level.

use gridstrat::core::{StrategyParams, TaskSession};
use gridstrat::sim::{
    BackgroundLoadConfig, Controller, GridConfig, GridSimulation, Notification, SimDuration,
    SiteConfig,
};
use gridstrat::stats::rng::derived_rng;
use gridstrat::stats::{fit::ks_statistic, Exponential};
use rand::rngs::StdRng;
use rand::Rng;

const Z: f64 = 4.0;
const BATCHES: usize = 20;
/// Mean service time of every farm, seconds.
const MEAN_S: f64 = 100.0;

/// A client that submits nothing: the engine runs background traffic only.
struct Idle;

impl Controller for Idle {
    fn start(&mut self, _: &mut GridSimulation) {}
    fn on_event(&mut self, _: &mut GridSimulation, _: Notification) {}
    fn done(&self) -> bool {
        false
    }
}

/// A measured farm: one site of `slots` slots at per-slot load `rho`, with
/// log-normal service of mean [`MEAN_S`] and coefficient of variation `cv`,
/// run until about `arrivals` jobs have arrived.
struct Farm {
    slots: usize,
    lambda: f64,
    horizon: f64,
    sim: GridSimulation,
}

impl Farm {
    fn run(slots: usize, rho: f64, cv: f64, arrivals: f64, seed: u64) -> Farm {
        let lambda = rho * slots as f64 / MEAN_S;
        let horizon = arrivals / lambda;
        let mut cfg = GridConfig::pipeline_default();
        cfg.sites = vec![SiteConfig {
            name: "farm".into(),
            slots,
            weight: 1.0,
        }];
        cfg.background = Some(BackgroundLoadConfig {
            arrival_rate_per_s: lambda,
            exec_mean_s: MEAN_S,
            exec_cv: cv,
        });
        cfg.horizon = SimDuration::from_secs(horizon);
        let mut sim = GridSimulation::new(cfg, seed).expect("valid farm");
        sim.run_controller(&mut Idle);
        assert_eq!(sim.stats().client_submitted, 0);
        Farm {
            slots,
            lambda,
            horizon,
            sim,
        }
    }

    /// The batch of the measured window `[0.1, 0.9)·horizon` holding `t`.
    fn batch(&self, t: f64) -> Option<usize> {
        let (lo, hi) = (0.1 * self.horizon, 0.9 * self.horizon);
        (lo..hi)
            .contains(&t)
            .then(|| ((t - lo) / (hi - lo) * BATCHES as f64) as usize)
    }

    /// Mean wait per batch of the jobs that arrived in it.
    fn wait_batches(&self) -> Vec<f64> {
        let mut sum = [0.0; BATCHES];
        let mut n = [0usize; BATCHES];
        for job in self.sim.jobs() {
            let arrived = job.submitted_at().as_secs();
            let Some(b) = self.batch(arrived) else {
                continue;
            };
            let started = job.started_at().expect("measured arrivals start").as_secs();
            sum[b] += started - arrived;
            n[b] += 1;
        }
        assert!(n.iter().all(|&k| k > 100), "batch sizes {n:?}");
        (0..BATCHES).map(|b| sum[b] / n[b] as f64).collect()
    }

    /// Time-average number of jobs waiting in the batch queue, per batch.
    fn queue_length_batches(&self) -> Vec<f64> {
        let (lo, hi) = (0.1 * self.horizon, 0.9 * self.horizon);
        let width = (hi - lo) / BATCHES as f64;
        let mut waiting = [0.0; BATCHES];
        for job in self.sim.jobs() {
            let arrived = job.submitted_at().as_secs();
            let started = job.started_at().map_or(self.horizon, |t| t.as_secs());
            for (b, job_time) in waiting.iter_mut().enumerate() {
                let (b_lo, b_hi) = (lo + b as f64 * width, lo + (b + 1) as f64 * width);
                *job_time += (started.min(b_hi) - arrived.max(b_lo)).max(0.0);
            }
        }
        waiting.iter().map(|&t| t / width).collect()
    }

    /// Busy share of the slots per batch.
    fn utilisation_batches(&self) -> Vec<f64> {
        let (lo, hi) = (0.1 * self.horizon, 0.9 * self.horizon);
        let width = (hi - lo) / BATCHES as f64;
        let mut busy = [0.0; BATCHES];
        for job in self.sim.jobs() {
            let Some(start) = job.started_at() else {
                continue;
            };
            let start = start.as_secs();
            let end = job.terminated_at().map_or(self.horizon, |t| t.as_secs());
            for (b, slot_time) in busy.iter_mut().enumerate() {
                let (b_lo, b_hi) = (lo + b as f64 * width, lo + (b + 1) as f64 * width);
                *slot_time += (end.min(b_hi) - start.max(b_lo)).max(0.0);
            }
        }
        busy.iter()
            .map(|&t| t / (width * self.slots as f64))
            .collect()
    }
}

/// Asserts that the mean of `batches` is within `Z` standard errors of
/// `exact`, and returns the tolerance used.
fn assert_within(what: &str, batches: &[f64], exact: f64) -> f64 {
    let k = batches.len() as f64;
    let mean = batches.iter().sum::<f64>() / k;
    let var = batches.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (k - 1.0);
    let tol = Z * (var / k).sqrt();
    assert!(
        (mean - exact).abs() <= tol,
        "{what}: measured {mean} against exact {exact}, tolerance {tol} (z = {Z})"
    );
    tol
}

/// Pollaczek–Khinchine mean wait of an M/G/1 queue.
fn pollaczek_khinchine(lambda: f64, mean: f64, cv: f64) -> f64 {
    let rho = lambda * mean;
    let second_moment = mean * mean * (1.0 + cv * cv);
    lambda * second_moment / (2.0 * (1.0 - rho))
}

#[test]
fn one_slot_mean_wait_is_pollaczek_khinchine() {
    for (rho, cv, seed) in [(0.5, 1.0, 0x9E1), (0.7, 0.5, 0x9E2)] {
        let farm = Farm::run(1, rho, cv, 240_000.0, seed);
        let exact = pollaczek_khinchine(farm.lambda, MEAN_S, cv);
        let tol = assert_within(
            &format!("M/G/1 wait at ρ = {rho}, cv = {cv}"),
            &farm.wait_batches(),
            exact,
        );
        // the check must be able to tell the engine from a wrong law: the
        // M/D/1 wait is half the M/M/1 one at the same load
        assert!(tol < 0.08 * exact, "tolerance {tol} too loose for {exact}");
    }
}

#[test]
fn utilisation_is_offered_load_per_slot() {
    for (slots, rho, cv, seed) in [(1, 0.5, 1.0, 0x9E3), (8, 0.75, 1.0, 0x9E4)] {
        let farm = Farm::run(slots, rho, cv, 240_000.0, seed);
        let exact = farm.lambda * MEAN_S / slots as f64;
        let tol = assert_within(
            &format!("utilisation at c = {slots}, ρ = {rho}"),
            &farm.utilisation_batches(),
            exact,
        );
        assert!(tol < 0.015, "tolerance {tol} too loose");
    }
}

#[test]
fn little_law_holds_for_the_waiting_line() {
    // c = 8 at ρ = 0.75: per batch, the time-average number of waiting
    // jobs L less λ times the mean wait W of the batch's arrivals
    let farm = Farm::run(8, 0.75, 1.0, 240_000.0, 0x9E5);
    let lengths = farm.queue_length_batches();
    let waits = farm.wait_batches();
    let gaps: Vec<f64> = lengths
        .iter()
        .zip(&waits)
        .map(|(l, w)| l - farm.lambda * w)
        .collect();
    let tol = assert_within("L − λW at c = 8, ρ = 0.75", &gaps, 0.0);
    let mean_length = lengths.iter().sum::<f64>() / BATCHES as f64;
    assert!(
        tol < 0.05 * mean_length,
        "tolerance {tol} too loose for L = {mean_length}"
    );
}

/// A client that submits `n` probes at once and waits `wait_s` seconds.
struct Burst {
    n: usize,
    wait_s: f64,
    over: bool,
}

impl Controller for Burst {
    fn start(&mut self, sim: &mut GridSimulation) {
        for _ in 0..self.n {
            sim.submit();
        }
        sim.set_timer(SimDuration::from_secs(self.wait_s), 0);
    }
    fn on_event(&mut self, _: &mut GridSimulation, ev: Notification) {
        if let Notification::Timer { .. } = ev {
            self.over = true;
        }
    }
    fn done(&self) -> bool {
        self.over
    }
}

/// Asserts that `k` of `n` trials is within `Z` binomial standard
/// deviations of `n·p`.
fn assert_binomial(what: &str, k: u64, n: u64, p: f64) {
    let (k, n) = (k as f64, n as f64);
    let tol = Z * (n * p * (1.0 - p)).sqrt();
    assert!(
        (k - n * p).abs() <= tol,
        "{what}: {k} of {n} against {}, tolerance {tol} (z = {Z})",
        n * p
    );
    // the check must tell the configured probability from a third more
    assert!(tol < n * p / 3.0, "{what}: tolerance {tol} too loose");
}

#[test]
fn client_fault_fractions_are_binomial() {
    // 40,000 probes on the default pipeline grid without background load;
    // every failure has surfaced long before the client stops waiting
    let mut cfg = GridConfig::pipeline_default();
    cfg.background = None;
    let faults = cfg.faults;
    let mut sim = GridSimulation::new(cfg, 0x9E6).expect("valid grid");
    let n = 40_000;
    sim.run_controller(&mut Burst {
        n,
        wait_s: 100_000.0,
        over: false,
    });
    let stats = sim.stats();
    assert_eq!(stats.client_submitted, n as u64);
    assert_eq!(
        stats.client_started + stats.client_failed + stats.client_stuck,
        n as u64,
        "every probe starts, fails or is lost"
    );
    assert_binomial(
        "silent losses among submissions",
        stats.client_stuck,
        n as u64,
        faults.p_silent_loss,
    );
    // a transient failure is drawn only for the probes that reach the WMS
    assert_binomial(
        "transient failures among arrivals at the WMS",
        stats.client_failed,
        n as u64 - stats.client_stuck,
        faults.p_transient_failure,
    );
}

/// Single-resubmission tasks started at Poisson instants of mean gap
/// `mean_gap_s` until `until`, one [`TaskSession`] each, whose jobs hold
/// their slot for `exec` once started. Task `k` runs under engine scope
/// `k + 1`; the arrival timer is the driver's own (scope 0).
struct PoissonTasks {
    rng: StdRng,
    mean_gap_s: f64,
    until: f64,
    strategy: StrategyParams,
    exec: SimDuration,
    /// Per task: its session and its start instant.
    tasks: Vec<(TaskSession, f64)>,
}

impl PoissonTasks {
    fn arm(&mut self, sim: &mut GridSimulation) {
        let gap = -(1.0 - self.rng.gen::<f64>()).ln() * self.mean_gap_s;
        if sim.now().as_secs() + gap < self.until {
            sim.set_timer(SimDuration::from_secs(gap), 0);
        }
    }

    /// `(start instant, latency)` of every task that has finished.
    fn latencies(&self) -> Vec<(f64, f64)> {
        self.tasks
            .iter()
            .filter_map(|(task, at)| task.total_latency().map(|j| (*at, j - at)))
            .collect()
    }
}

impl Controller for PoissonTasks {
    fn start(&mut self, sim: &mut GridSimulation) {
        self.arm(sim);
    }

    fn on_event(&mut self, sim: &mut GridSimulation, ev: Notification) {
        let owner = match ev {
            Notification::Timer { token, .. } => token >> 32,
            Notification::JobStarted { id, .. }
            | Notification::JobFinished { id, .. }
            | Notification::JobFailed { id, .. } => sim.job(id).owner(),
        };
        if owner == 0 {
            let mut task = TaskSession::new(self.strategy);
            task.begin(self.tasks.len() as u64 + 1, self.exec);
            task.start(sim);
            self.tasks.push((task, sim.now().as_secs()));
            self.arm(sim);
        } else {
            self.tasks[owner as usize - 1].0.on_event(sim, ev);
        }
    }

    fn done(&self) -> bool {
        false
    }
}

#[test]
fn client_latency_is_the_hops_plus_the_mixed_pollaczek_khinchine_wait() {
    // one slot at ρ = 0.6: background jobs (mean 100 s, cv 1) offer 0.3,
    // client tasks (a deterministic 200 s each) the other 0.3
    let (lambda_bg, lambda_client, client_exec) = (0.003, 0.0015, 200.0);
    let horizon = 60_000.0 / lambda_client;
    let mut cfg = GridConfig::pipeline_default();
    cfg.sites = vec![SiteConfig {
        name: "farm".into(),
        slots: 1,
        weight: 1.0,
    }];
    cfg.background = Some(BackgroundLoadConfig {
        arrival_rate_per_s: lambda_bg,
        exec_mean_s: MEAN_S,
        exec_cv: 1.0,
    });
    cfg.faults.p_silent_loss = 0.0;
    cfg.faults.p_transient_failure = 0.0;
    cfg.horizon = SimDuration::from_secs(horizon);
    let hops = cfg.wms.ui_to_wms_mean_s + cfg.wms.matchmaking_mean_s + cfg.wms.dispatch_mean_s;
    let mut sim = GridSimulation::new(cfg, 0x9E7).expect("valid farm");
    let mut driver = PoissonTasks {
        rng: derived_rng(0x9E7, 1),
        mean_gap_s: 1.0 / lambda_client,
        until: horizon,
        // never times out before the horizon, so never cancels
        strategy: StrategyParams::Single {
            t_inf: 10.0 * horizon,
        },
        exec: SimDuration::from_secs(client_exec),
        tasks: Vec::new(),
    };
    sim.run_controller(&mut driver);

    // the M/G/1 queue of the superposed Poisson streams
    let lambda = lambda_bg + lambda_client;
    let rho = lambda_bg * MEAN_S + lambda_client * client_exec;
    let second_moment = lambda_bg * 2.0 * MEAN_S * MEAN_S + lambda_client * client_exec.powi(2);
    let wait = second_moment / (2.0 * (1.0 - rho));
    assert!((rho - 0.6).abs() < 1e-12 && lambda > 0.0);

    let (lo, hi) = (0.1 * horizon, 0.9 * horizon);
    let mut sum = [0.0; BATCHES];
    let mut n = [0usize; BATCHES];
    for (at, latency) in driver.latencies() {
        if (lo..hi).contains(&at) {
            let b = ((at - lo) / (hi - lo) * BATCHES as f64) as usize;
            sum[b] += latency;
            n[b] += 1;
        }
    }
    let started_in_window = driver
        .tasks
        .iter()
        .filter(|(_, at)| (lo..hi).contains(at))
        .count();
    assert_eq!(
        n.iter().sum::<usize>(),
        started_in_window,
        "every task ends"
    );
    assert!(n.iter().all(|&k| k > 1_000), "batch sizes {n:?}");
    let batches: Vec<f64> = (0..BATCHES).map(|b| sum[b] / n[b] as f64).collect();
    let tol = assert_within("client latency at ρ = 0.6", &batches, hops + wait);
    // the check must tell the mixture from a queue that ignores the
    // clients' own service (a wait of 43 s instead of 150 s)
    assert!(tol < 0.1 * wait, "tolerance {tol} too loose for {wait}");
}

#[test]
fn cancellation_lands_after_an_exponential_delay() {
    // every job is silently lost, so a single-resubmission task cancels
    // each at its timeout t∞ and resubmits at once: job k's cancellation
    // is requested at submission + t∞ and applied when its record ends
    let (t_inf, mean) = (100.0, 300.0);
    let mut cfg = GridConfig::pipeline_default();
    cfg.background = None;
    cfg.faults.p_silent_loss = 1.0;
    cfg.wms.cancellation_delay_mean_s = mean;
    let requests = 20_000.0;
    cfg.horizon = SimDuration::from_secs(requests * t_inf);
    let mut sim = GridSimulation::new(cfg, 0x9E8).expect("valid grid");
    let mut task = TaskSession::new(StrategyParams::Single { t_inf });
    task.begin(1, SimDuration::ZERO);
    sim.run_controller(&mut task);
    assert!(task.total_latency().is_none(), "no job can start");

    // requests late enough to land past the horizon are left out: past
    // 20 means before it, a landing is missed with probability e^-20
    let last_request = requests * t_inf - 20.0 * mean;
    let delays: Vec<f64> = sim
        .jobs()
        .iter()
        .map(|rec| (rec.submitted_at().as_secs() + t_inf, rec.terminated_at()))
        .filter(|&(requested, _)| requested < last_request)
        .map(|(requested, landed)| landed.expect("a cancellation lands").as_secs() - requested)
        .collect();
    let k = delays.len() as f64;
    assert!(k > 19_000.0, "{k} requests");
    let measured = delays.iter().sum::<f64>() / k;
    let tol = Z * mean / k.sqrt();
    assert!(
        (measured - mean).abs() <= tol,
        "mean delay {measured} against {mean}, tolerance {tol} (z = {Z})"
    );
    // Kolmogorov–Smirnov at the 0.01% level: √k·D ≤ √(ln(2/α)/2) = 2.23
    let d = ks_statistic(&delays, &Exponential::new(1.0 / mean).unwrap());
    assert!(
        k.sqrt() * d <= 2.23,
        "KS distance {d} from Exp(mean {mean}) over {k} delays"
    );
}
