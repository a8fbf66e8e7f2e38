//! Simulation configuration: latency regime, topology, faults, load.

use crate::modulation::Modulation;
use crate::time::{SimDuration, SimTime};
use gridstrat_workload::WeekModel;
use std::sync::Arc;

/// How job latencies come about.
#[derive(Debug, Clone)]
pub enum LatencyMode {
    /// Latency of each client job is drawn i.i.d. from a calibrated weekly
    /// model; draws at/above the censoring threshold make the job
    /// [`crate::job::JobState::Stuck`]. Matches the paper's probabilistic
    /// assumptions exactly — used for validating the closed-form models.
    Oracle(WeekModel),
    /// Latency of each client job is resampled uniformly (i.i.d., with
    /// replacement) from a recorded trace's latencies; resampled values
    /// at/above `threshold_s` make the job stuck. This executes strategies
    /// against *exactly* the empirical law the analysis was tuned on —
    /// the tightest possible analytic-vs-simulated comparison.
    Resample {
        /// Recorded latencies (censored values included, at the threshold).
        latencies: Vec<f64>,
        /// Censoring threshold of the recording.
        threshold_s: f64,
    },
    /// Latency emerges from the simulated middleware pipeline: UI→WMS hop,
    /// match-making, dispatch, CE queueing behind background load, faults.
    Pipeline,
}

/// One computing site (a Computing Element fronting a batch farm).
#[derive(Debug, Clone)]
pub struct SiteConfig {
    /// Human-readable site name.
    pub name: String,
    /// Number of worker slots (concurrently running jobs).
    pub slots: usize,
    /// Relative weight for random site selection.
    pub weight: f64,
}

/// WMS behaviour (hop delays are exponential with the given means).
#[derive(Debug, Clone)]
pub struct WmsConfig {
    /// Mean UI → WMS transfer + registration delay, seconds.
    pub ui_to_wms_mean_s: f64,
    /// Mean match-making service time, seconds.
    pub matchmaking_mean_s: f64,
    /// Mean WMS → CE dispatch delay, seconds.
    pub dispatch_mean_s: f64,
    /// Mean delay before a client cancellation takes effect, seconds.
    /// `0` means instantaneous. On real middleware a cancel is itself a
    /// WMS round-trip, so redundant burst copies can still *start* (and
    /// burn a slot) while their cancellation is in flight — the waste
    /// administrators complain about.
    pub cancellation_delay_mean_s: f64,
    /// Site-selection policy.
    pub ranking: RankingPolicy,
}

/// How the WMS picks a site for a matched job.
///
/// A production meta-scheduler works from *partial, stale* information
/// (paper §1); `LeastLoaded { stale_prob }` models that: with probability
/// `stale_prob` the choice is weight-random (information was stale),
/// otherwise the currently least-loaded site is picked.
#[derive(Debug, Clone, Copy)]
pub enum RankingPolicy {
    /// Pick a site at random, proportional to its weight.
    WeightedRandom,
    /// Pick the least-loaded site, falling back to weight-random with the
    /// given probability (stale information).
    LeastLoaded {
        /// Probability that the load information is stale.
        stale_prob: f64,
    },
}

/// Fault injection for the pipeline regime.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Probability that a submission is silently lost (the job never
    /// produces another event — the paper's outliers).
    pub p_silent_loss: f64,
    /// Probability that a job suffers a *transient* middleware failure
    /// (surfacing as an error after a delay) instead of being match-made.
    pub p_transient_failure: f64,
    /// Mean delay before a transient failure surfaces, seconds.
    pub failure_delay_mean_s: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            p_silent_loss: 0.05,
            p_transient_failure: 0.02,
            failure_delay_mean_s: 120.0,
        }
    }
}

/// Background (non-client) traffic keeping the farm busy.
#[derive(Debug, Clone, Copy)]
pub struct BackgroundLoadConfig {
    /// Poisson arrival rate of background jobs, jobs per second (whole grid).
    pub arrival_rate_per_s: f64,
    /// Log-normal mean of background execution times, seconds.
    pub exec_mean_s: f64,
    /// Coefficient of variation of background execution times.
    pub exec_cv: f64,
}

impl Default for BackgroundLoadConfig {
    fn default() -> Self {
        BackgroundLoadConfig {
            arrival_rate_per_s: 0.4,
            exec_mean_s: 1800.0,
            exec_cv: 1.5,
        }
    }
}

/// Complete simulation configuration.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Latency regime.
    pub latency: LatencyMode,
    /// Sites (pipeline regime; ignored by the oracle). Fewer than
    /// `u16::MAX`: the job table stores a site index in 16 bits.
    pub sites: Vec<SiteConfig>,
    /// WMS behaviour (pipeline regime).
    pub wms: WmsConfig,
    /// Fault injection (pipeline regime).
    pub faults: FaultConfig,
    /// Background traffic; `None` disables it.
    pub background: Option<BackgroundLoadConfig>,
    /// Hard horizon: events beyond this instant are not processed. Guards
    /// against infinite background-traffic runs. Must end before
    /// [`SimTime::MAX`], the job table's "not yet" instant.
    pub horizon: SimDuration,
    /// Time-varying load modulation (see [`crate::modulation`]); `None`
    /// keeps the grid stationary. Behind an `Arc` so sharing a config
    /// across thousands of Monte-Carlo engines stays cheap.
    pub modulation: Option<Arc<dyn Modulation>>,
}

impl GridConfig {
    /// Oracle-mode configuration for validating analytic strategy models
    /// against a weekly latency model.
    pub fn oracle(model: WeekModel) -> Self {
        GridConfig {
            latency: LatencyMode::Oracle(model),
            sites: Vec::new(),
            wms: WmsConfig::default(),
            faults: FaultConfig {
                p_silent_loss: 0.0,
                p_transient_failure: 0.0,
                failure_delay_mean_s: 1.0,
            },
            background: None,
            horizon: SimDuration::from_secs(10_000_000.0),
            modulation: None,
        }
    }

    /// Resample-mode configuration: client latencies are drawn i.i.d. from
    /// the recorded values, so strategy executions follow exactly the
    /// empirical law of the trace.
    pub fn resample(latencies: Vec<f64>, threshold_s: f64) -> Self {
        let mut cfg = Self::oracle(
            WeekModel::calibrate("placeholder", 2.0, 1.0, 0.0, 0.0, 10.0)
                .expect("static placeholder parameters are valid"),
        );
        cfg.latency = LatencyMode::Resample {
            latencies,
            threshold_s,
        };
        cfg
    }

    /// A small EGEE-like pipeline grid: a handful of heterogeneous sites,
    /// default WMS delays, default faults and background load.
    pub fn pipeline_default() -> Self {
        GridConfig {
            latency: LatencyMode::Pipeline,
            sites: vec![
                SiteConfig {
                    name: "CC-LYON".into(),
                    slots: 120,
                    weight: 3.0,
                },
                SiteConfig {
                    name: "CNAF".into(),
                    slots: 80,
                    weight: 2.0,
                },
                SiteConfig {
                    name: "NIKHEF".into(),
                    slots: 60,
                    weight: 2.0,
                },
                SiteConfig {
                    name: "GRIF".into(),
                    slots: 40,
                    weight: 1.0,
                },
                SiteConfig {
                    name: "RAL".into(),
                    slots: 30,
                    weight: 1.0,
                },
            ],
            wms: WmsConfig::default(),
            faults: FaultConfig::default(),
            background: Some(BackgroundLoadConfig::default()),
            horizon: SimDuration::from_secs(10_000_000.0),
            modulation: None,
        }
    }

    /// Validates internal consistency; called by the engine at construction.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("p_silent_loss", self.faults.p_silent_loss),
            ("p_transient_failure", self.faults.p_transient_failure),
        ];
        for (name, p) in probs {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(format!("{name} must be in [0,1], got {p}"));
            }
        }
        if let RankingPolicy::LeastLoaded { stale_prob } = self.wms.ranking {
            if !(stale_prob.is_finite() && (0.0..=1.0).contains(&stale_prob)) {
                return Err(format!("stale_prob must be in [0,1], got {stale_prob}"));
            }
        }
        if let LatencyMode::Resample {
            latencies,
            threshold_s,
        } = &self.latency
        {
            if latencies.is_empty() {
                return Err("resample mode requires at least one recorded latency".into());
            }
            if latencies.iter().all(|&l| l >= *threshold_s) {
                return Err("resample mode requires at least one non-censored latency".into());
            }
            if latencies.iter().any(|&l| !l.is_finite() || l < 0.0) {
                return Err("recorded latencies must be finite and non-negative".into());
            }
        }
        if SimTime::ZERO.after(self.horizon) == SimTime::MAX {
            return Err("horizon must end before the latest representable instant".into());
        }
        if self.sites.len() >= u16::MAX as usize {
            return Err(format!(
                "at most {} sites are supported, got {}",
                u16::MAX - 1,
                self.sites.len()
            ));
        }
        if matches!(self.latency, LatencyMode::Pipeline) {
            if self.sites.is_empty() {
                return Err("pipeline mode requires at least one site".into());
            }
            if self.sites.iter().any(|s| s.slots == 0) {
                return Err("sites must have at least one slot".into());
            }
            if self
                .sites
                .iter()
                .any(|s| !(s.weight.is_finite() && s.weight > 0.0))
            {
                return Err("site weights must be positive".into());
            }
        }
        if let Some(bg) = &self.background {
            if !(bg.arrival_rate_per_s.is_finite() && bg.arrival_rate_per_s > 0.0) {
                return Err("background arrival rate must be positive".into());
            }
            if bg.exec_mean_s <= 0.0 || bg.exec_cv <= 0.0 {
                return Err("background execution moments must be positive".into());
            }
        }
        for (name, v) in [
            ("ui_to_wms_mean_s", self.wms.ui_to_wms_mean_s),
            ("matchmaking_mean_s", self.wms.matchmaking_mean_s),
            ("dispatch_mean_s", self.wms.dispatch_mean_s),
            ("failure_delay_mean_s", self.faults.failure_delay_mean_s),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        let cd = self.wms.cancellation_delay_mean_s;
        if !(cd.is_finite() && cd >= 0.0) {
            return Err(format!(
                "cancellation_delay_mean_s must be finite and >= 0, got {cd}"
            ));
        }
        Ok(())
    }
}

impl Default for WmsConfig {
    fn default() -> Self {
        WmsConfig {
            ui_to_wms_mean_s: 15.0,
            matchmaking_mean_s: 45.0,
            dispatch_mean_s: 30.0,
            cancellation_delay_mean_s: 0.0,
            ranking: RankingPolicy::LeastLoaded { stale_prob: 0.3 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(GridConfig::pipeline_default().validate().is_ok());
        let m = WeekModel::calibrate("w", 500.0, 700.0, 0.1, 50.0, 1e4).unwrap();
        assert!(GridConfig::oracle(m).validate().is_ok());
    }

    #[test]
    fn rejects_bad_probabilities() {
        let mut c = GridConfig::pipeline_default();
        c.faults.p_silent_loss = 1.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_empty_pipeline_topology() {
        let mut c = GridConfig::pipeline_default();
        c.sites.clear();
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_zero_slot_site() {
        let mut c = GridConfig::pipeline_default();
        c.sites[0].slots = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_nonpositive_delays() {
        let mut c = GridConfig::pipeline_default();
        c.wms.matchmaking_mean_s = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_a_horizon_reaching_the_not_yet_instant() {
        let mut c = GridConfig::pipeline_default();
        c.horizon = SimDuration(u64::MAX);
        assert!(c.validate().unwrap_err().contains("horizon"));
        c.horizon = SimDuration::from_secs(f64::INFINITY);
        assert!(c.validate().is_err());
        c.horizon = SimDuration(u64::MAX - 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_more_sites_than_a_record_can_index() {
        let mut c = GridConfig::pipeline_default();
        let site = c.sites[0].clone();
        c.sites = vec![site; u16::MAX as usize];
        assert!(c.validate().unwrap_err().contains("sites"));
        c.sites.pop();
        assert!(c.validate().is_ok());
    }
}
