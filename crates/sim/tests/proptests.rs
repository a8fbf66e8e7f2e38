//! Property-based tests for the discrete-event engine: conservation laws,
//! cancellation semantics and determinism under randomized configurations,
//! and the event queue's pop order against a reference heap.
//!
//! The crates.io `proptest` harness is unavailable offline, so these use a
//! seeded hand-rolled generator: every `#[test]` draws `CASES` random
//! configurations from a fixed stream, making failures exactly
//! reproducible (the failing case index is part of the assertion message).

use gridstrat_sim::event::{EventKind, EventQueue};
use gridstrat_sim::{
    BackgroundLoadConfig, Controller, FaultConfig, GridConfig, GridSimulation, JobId, JobState,
    Notification, ProbeHarness, SimDuration, SimTime,
};
use gridstrat_stats::rng::derived_rng;
use gridstrat_workload::WeekModel;
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

const CASES: usize = 48;

/// A controller that fires a fixed batch and watches until a deadline.
struct Batch {
    n: usize,
    started: usize,
    failed: usize,
    deadline: bool,
}

impl Controller for Batch {
    fn start(&mut self, sim: &mut GridSimulation) {
        for _ in 0..self.n {
            sim.submit();
        }
        sim.set_timer(SimDuration::from_secs(60_000.0), 0);
    }
    fn on_event(&mut self, _sim: &mut GridSimulation, ev: Notification) {
        match ev {
            Notification::JobStarted { .. } => self.started += 1,
            Notification::JobFailed { .. } => self.failed += 1,
            Notification::Timer { .. } => self.deadline = true,
            _ => {}
        }
    }
    fn done(&self) -> bool {
        self.deadline
    }
}

fn arb_faults(rng: &mut StdRng) -> FaultConfig {
    FaultConfig {
        p_silent_loss: rng.gen_range(0.0..0.6f64),
        p_transient_failure: rng.gen_range(0.0..0.5f64),
        failure_delay_mean_s: rng.gen_range(10.0..500.0f64),
    }
}

#[test]
fn every_job_reaches_exactly_one_account() {
    let mut rng = derived_rng(0x51D, 1);
    for case in 0..CASES {
        let seed = rng.gen_range(0..1000u64);
        let n = rng.gen_range(1..120usize);
        let mut cfg = GridConfig::pipeline_default();
        cfg.background = None;
        cfg.faults = arb_faults(&mut rng);
        let mut sim = GridSimulation::new(cfg, seed).unwrap();
        let mut ctrl = Batch {
            n,
            started: 0,
            failed: 0,
            deadline: false,
        };
        sim.run_controller(&mut ctrl);
        let stats = sim.stats();
        assert_eq!(stats.client_submitted, n as u64, "case {case}");
        assert_eq!(
            stats.client_started + stats.client_failed + stats.client_stuck,
            n as u64,
            "case {case}: jobs leaked between accounts"
        );
        assert_eq!(stats.client_started, ctrl.started as u64, "case {case}");
        assert_eq!(stats.client_failed, ctrl.failed as u64, "case {case}");
    }
}

#[test]
fn started_jobs_have_consistent_records() {
    let mut rng = derived_rng(0x51D, 2);
    for case in 0..CASES {
        let seed = rng.gen_range(0..500u64);
        let n = rng.gen_range(1..60usize);
        let model = WeekModel::calibrate("p", 400.0, 300.0, 0.1, 50.0, 10_000.0).unwrap();
        let mut sim = GridSimulation::new(GridConfig::oracle(model), seed).unwrap();
        let mut ctrl = Batch {
            n,
            started: 0,
            failed: 0,
            deadline: false,
        };
        sim.run_controller(&mut ctrl);
        for rec in sim.jobs() {
            match rec.state() {
                JobState::Running | JobState::Finished => {
                    let started = rec.started_at().expect("running jobs have a start");
                    assert!(started >= rec.submitted_at(), "case {case}");
                    // oracle latency respects the 50 s shift
                    assert!(
                        started.since(rec.submitted_at()).as_secs() >= 50.0 - 1e-6,
                        "case {case}"
                    );
                }
                JobState::Stuck => assert!(rec.started_at().is_none(), "case {case}"),
                _ => {}
            }
        }
    }
}

#[test]
fn identical_seeds_identical_histories() {
    let mut rng = derived_rng(0x51D, 3);
    for case in 0..CASES {
        let seed = rng.gen_range(0..500u64);
        let n = rng.gen_range(1..50usize);
        let run = |seed: u64| {
            let model = WeekModel::calibrate("p", 400.0, 300.0, 0.2, 50.0, 10_000.0).unwrap();
            let mut sim = GridSimulation::new(GridConfig::oracle(model), seed).unwrap();
            let mut ctrl = Batch {
                n,
                started: 0,
                failed: 0,
                deadline: false,
            };
            sim.run_controller(&mut ctrl);
            sim.jobs()
                .iter()
                .map(|r| (r.state(), r.started_at(), r.terminated_at()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            run(seed),
            run(seed),
            "case {case}: history not reproducible"
        );
    }
}

#[test]
fn probe_harness_always_hits_target() {
    let mut rng = derived_rng(0x51D, 4);
    for case in 0..CASES {
        let seed = rng.gen_range(0..300u64);
        let target = rng.gen_range(1..200usize);
        let in_flight = rng.gen_range(1..40usize);
        let rho = rng.gen_range(0.0..0.6f64);
        let model = WeekModel::calibrate("p", 400.0, 300.0, rho, 50.0, 10_000.0).unwrap();
        let mut sim = GridSimulation::new(GridConfig::oracle(model), seed).unwrap();
        let mut harness = ProbeHarness::new("prop", target, in_flight, 10_000.0);
        sim.run_controller(&mut harness);
        let trace = harness.into_trace();
        assert_eq!(trace.len(), target, "case {case}");
        // submission order, consistent statuses
        for w in trace.records.windows(2) {
            assert!(w[0].submitted_at <= w[1].submitted_at, "case {case}");
        }
        for r in &trace.records {
            if r.is_outlier() {
                assert_eq!(r.latency_s, 10_000.0, "case {case}");
            } else {
                assert!(r.latency_s < 10_000.0, "case {case}");
            }
        }
    }
}

#[test]
fn background_load_never_blocks_termination() {
    let mut rng = derived_rng(0x51D, 5);
    for case in 0..CASES.min(24) {
        let seed = rng.gen_range(0..200u64);
        let rate = rng.gen_range(0.001..0.3f64);
        let exec = rng.gen_range(100.0..3_000.0f64);
        let mut cfg = GridConfig::pipeline_default();
        cfg.background = Some(BackgroundLoadConfig {
            arrival_rate_per_s: rate,
            exec_mean_s: exec,
            exec_cv: 1.0,
        });
        cfg.horizon = SimDuration::from_secs(50_000.0);
        let mut sim = GridSimulation::new(cfg, seed).unwrap();
        let mut ctrl = Batch {
            n: 5,
            started: 0,
            failed: 0,
            deadline: false,
        };
        sim.run_controller(&mut ctrl);
        // the run always ends (deadline timer or horizon), never hangs
        assert!(sim.now().as_secs() <= 60_000.0 + 1e-6, "case {case}");
    }
}

#[test]
fn cancel_is_idempotent_and_final() {
    // two requests for one job: under a zero delay the first removes it
    // and the second is refused; under a positive delay both travel, and
    // whichever of the two landings and the start comes first, the job is
    // cancelled at most once and never both cancelled and started
    struct CancelTwice {
        outcome: Option<(bool, bool)>,
        started: bool,
        done: bool,
    }
    impl Controller for CancelTwice {
        fn start(&mut self, sim: &mut GridSimulation) {
            let id = sim.submit();
            let first = sim.cancel(id);
            let second = sim.cancel(id);
            self.outcome = Some((first, second));
            sim.set_timer(SimDuration::from_secs(20_000.0), 0);
        }
        fn on_event(&mut self, _sim: &mut GridSimulation, ev: Notification) {
            match ev {
                Notification::JobStarted { .. } => self.started = true,
                Notification::Timer { .. } => self.done = true,
                _ => {}
            }
        }
        fn done(&self) -> bool {
            self.done
        }
    }
    let run = |cancellation_delay_mean_s: f64, seed: u64| {
        let model = WeekModel::calibrate("p", 400.0, 300.0, 0.0, 50.0, 10_000.0).unwrap();
        let mut cfg = GridConfig::oracle(model);
        cfg.wms.cancellation_delay_mean_s = cancellation_delay_mean_s;
        let mut sim = GridSimulation::new(cfg, seed).unwrap();
        let mut ctrl = CancelTwice {
            outcome: None,
            started: false,
            done: false,
        };
        sim.run_controller(&mut ctrl);
        (sim, ctrl)
    };

    let mut rng = derived_rng(0x51D, 6);
    for case in 0..CASES {
        let (sim, ctrl) = run(0.0, rng.gen_range(0..300u64));
        assert_eq!(ctrl.outcome, Some((true, false)), "case {case}");
        assert!(!ctrl.started, "case {case}: a cancelled job started");
        assert_eq!(sim.stats().client_cancelled, 1, "case {case}");
    }

    let mut rng = derived_rng(0x51D, 7);
    let (mut cancelled, mut started) = (0, 0);
    for case in 0..CASES {
        let delay = rng.gen_range(50.0..800.0);
        let (sim, ctrl) = run(delay, rng.gen_range(0..300u64));
        let stats = sim.stats();
        assert_eq!(ctrl.outcome, Some((true, true)), "delayed case {case}");
        assert_eq!(stats.client_cancel_requests, 2, "delayed case {case}");
        assert!(stats.client_cancelled <= 1, "delayed case {case}");
        let rec = &sim.jobs()[0];
        if rec.state() == JobState::Cancelled {
            assert!(
                !ctrl.started && rec.started_at().is_none(),
                "delayed case {case}: a cancelled job started"
            );
            assert_eq!(stats.client_cancelled, 1, "delayed case {case}");
            cancelled += 1;
        } else {
            assert!(ctrl.started, "delayed case {case}: {:?}", rec.state());
            assert_eq!(stats.client_cancelled, 0, "delayed case {case}");
            started += 1;
        }
    }
    // both races happened: requests that found the job already cancelled,
    // and requests that found it already started
    assert!(
        cancelled > 0 && started > 0,
        "{cancelled} cancelled, {started} started"
    );
}

#[test]
fn event_queue_pops_like_a_reference_heap() {
    // the radix queue against a binary heap on `(time, sequence)`, pop by
    // pop: random monotone schedules with same-instant ties, interleaved
    // pops, `pop_until` caps and cancellations, at time scales from a
    // millisecond to weeks. A cancelled event must never pop
    let mut rng = derived_rng(0xE7E, 1);
    for case in 0..CASES {
        let spread: u64 = [2, 1_000, 3_600_000, 1 << 40][case % 4];
        let mut q = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut cancelled: HashSet<u64> = HashSet::new();
        let mut popped: HashSet<u64> = HashSet::new();
        // cancellation candidates; popped ones are skipped lazily
        let mut pending: Vec<u64> = Vec::new();
        let (mut now, mut last_at, mut scheduled) = (0u64, 0u64, 0u64);
        // the reference's next live event if it fires at or before `cap`
        let expect = |reference: &mut BinaryHeap<Reverse<(u64, u64)>>,
                      cancelled: &HashSet<u64>,
                      cap: u64| {
            while let Some(&Reverse((at, seq))) = reference.peek() {
                if cancelled.contains(&seq) {
                    reference.pop();
                } else if at <= cap {
                    reference.pop();
                    return Some((at, seq));
                } else {
                    break;
                }
            }
            None
        };
        for step in 0..1_500 {
            let op = rng.gen_range(0..10u32);
            if op < 5 || reference.is_empty() {
                // ties: the current instant, the last scheduled instant
                let at = match rng.gen_range(0..5u32) {
                    0 => now,
                    1 => last_at.max(now),
                    _ => now + rng.gen_range(0..spread),
                };
                // the token is the sequence number the queue hands out
                let token = scheduled;
                scheduled += 1;
                let seq = q.schedule(SimTime(at), EventKind::Timer { token });
                assert_eq!(seq, token, "case {case}: sequence numbers");
                reference.push(Reverse((at, seq)));
                pending.push(seq);
                last_at = at;
                continue;
            }
            if op == 5 {
                while !pending.is_empty() {
                    let seq = pending.swap_remove(rng.gen_range(0..pending.len()));
                    if !popped.contains(&seq) {
                        q.cancel(seq);
                        cancelled.insert(seq);
                        break;
                    }
                }
                continue;
            }
            let cap = if op == 6 {
                now + rng.gen_range(0..spread)
            } else {
                u64::MAX
            };
            let want = expect(&mut reference, &cancelled, cap);
            let got = q.pop_until(SimTime(cap));
            assert_eq!(
                got,
                want.map(|(at, seq)| (SimTime(at), EventKind::Timer { token: seq })),
                "case {case} step {step}"
            );
            if let Some((at, seq)) = want {
                assert!(!cancelled.contains(&seq), "case {case}: cancelled pop");
                popped.insert(seq);
                now = at;
            }
        }
        let live = reference
            .iter()
            .filter(|Reverse((_, seq))| !cancelled.contains(seq))
            .count();
        assert_eq!(q.len(), live, "case {case}: live count");
        while let Some((at, seq)) = expect(&mut reference, &cancelled, u64::MAX) {
            assert_eq!(
                q.pop(),
                Some((SimTime(at), EventKind::Timer { token: seq })),
                "case {case}: drain"
            );
        }
        assert_eq!(q.pop(), None, "case {case}: drained");
        assert!(q.is_empty());
    }
}

#[test]
fn every_event_kind_round_trips_through_the_queue() {
    let kinds = [
        EventKind::ArriveAtWms(JobId(0)),
        EventKind::ArriveAtWms(JobId(u64::MAX)),
        EventKind::Dispatch(JobId(u64::MAX)),
        EventKind::EnterQueue(JobId(u64::MAX)),
        EventKind::Start(JobId(u64::MAX)),
        EventKind::Finish(JobId(u64::MAX)),
        EventKind::Fail(JobId(u64::MAX)),
        EventKind::CancelApply(JobId(u64::MAX)),
        EventKind::BackgroundArrival { site: 0 },
        EventKind::BackgroundArrival { site: usize::MAX },
        EventKind::InjectedArrival {
            exec: SimDuration(u64::MAX),
        },
        EventKind::Timer { token: 0 },
        EventKind::Timer { token: u64::MAX },
    ];
    let mut q = EventQueue::new();
    for (i, &kind) in kinds.iter().enumerate() {
        // the last one at the latest representable instant
        let at = if i + 1 == kinds.len() {
            SimTime::MAX
        } else {
            SimTime(i as u64 * 7)
        };
        q.schedule(at, kind);
    }
    let popped: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|(_, k)| k).collect();
    assert_eq!(popped, kinds);
}
