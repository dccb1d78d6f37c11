//! Run and collection configuration.

use std::collections::HashMap;

use crate::faults::FaultPlan;

/// Network performance model (latency/bandwidth with an eager threshold),
/// standing in for the clusters of §5.1.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// One-way point-to-point latency in µs.
    pub latency_us: f64,
    /// Bandwidth in bytes per µs (e.g. 12500 B/µs = 100 Gb/s).
    pub bw_bytes_per_us: f64,
    /// Messages larger than this use rendezvous (blocking) semantics.
    pub eager_threshold: u64,
    /// Local software overhead per posted operation in µs.
    pub op_overhead_us: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        // Roughly EDR InfiniBand: ~1.5 µs latency, 100 Gb/s.
        NetworkModel {
            latency_us: 1.5,
            bw_bytes_per_us: 12_500.0,
            eager_threshold: 8192,
            op_overhead_us: 0.3,
        }
    }
}

impl NetworkModel {
    /// Pure transfer time of a message.
    pub fn transfer_us(&self, bytes: u64) -> f64 {
        self.latency_us + bytes as f64 / self.bw_bytes_per_us
    }

    /// The paper's *Gorgon* cluster: 100 Gb/s 4xEDR InfiniBand.
    pub fn gorgon() -> Self {
        NetworkModel::default()
    }

    /// The paper's *Tianhe-2A* custom interconnect: similar bandwidth,
    /// slightly lower latency, larger eager window.
    pub fn tianhe2a() -> Self {
        NetworkModel {
            latency_us: 1.0,
            bw_bytes_per_us: 14_000.0,
            eager_threshold: 16_384,
            op_overhead_us: 0.25,
        }
    }
}

/// What the built-in runtime collection module records.
#[derive(Debug, Clone)]
pub struct CollectionConfig {
    /// Sampling period in virtual µs (`None` disables sampling). The
    /// paper's 200 Hz corresponds to 5000 µs.
    pub sampling_period_us: Option<f64>,
    /// Collect PMU estimates per calling context.
    pub collect_pmu: bool,
    /// Record per-instance communication events and message edges.
    pub collect_comm: bool,
    /// Record per-instance lock events.
    pub collect_locks: bool,
    /// Record a full event trace (Scalasca-style; expensive).
    pub trace_events: bool,
    /// Cap on stored trace events; further events are counted (and their
    /// storage estimated) but not stored.
    pub trace_store_cap: usize,
    /// Virtual cost charged to the application per fired sample
    /// (signal handler + stack unwind), µs.
    pub sample_cost_us: f64,
    /// Virtual cost charged per intercepted communication call (PMPI
    /// wrapper), µs.
    pub comm_wrapper_cost_us: f64,
    /// Virtual cost charged per recorded trace event (Scalasca-style
    /// event writing), µs.
    pub trace_event_cost_us: f64,
}

impl Default for CollectionConfig {
    fn default() -> Self {
        CollectionConfig {
            sampling_period_us: Some(5000.0),
            collect_pmu: true,
            collect_comm: true,
            collect_locks: true,
            trace_events: false,
            trace_store_cap: 1_000_000,
            sample_cost_us: 8.0,
            comm_wrapper_cost_us: 1.2,
            trace_event_cost_us: 2.5,
        }
    }
}

impl CollectionConfig {
    /// Collection fully disabled (baseline for overhead measurements).
    pub fn off() -> Self {
        CollectionConfig {
            sampling_period_us: None,
            collect_pmu: false,
            collect_comm: false,
            collect_locks: false,
            trace_events: false,
            trace_store_cap: 0,
            sample_cost_us: 0.0,
            comm_wrapper_cost_us: 0.0,
            trace_event_cost_us: 0.0,
        }
    }

    /// The paper's PerFlow setting: 200 Hz sampling + comm/lock records.
    pub fn sampling() -> Self {
        Self::default()
    }

    /// Full tracing (the Scalasca comparison point).
    pub fn tracing() -> Self {
        CollectionConfig {
            trace_events: true,
            ..Self::default()
        }
    }
}

/// A complete run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of processes.
    pub nranks: u32,
    /// Threads per process used by thread regions that ask for
    /// `nthreads()`.
    pub nthreads: u32,
    /// Scale-parameter overrides (merged over the program defaults).
    pub params: HashMap<String, f64>,
    /// Run seed (drives all noise).
    pub seed: u64,
    /// Network model.
    pub network: NetworkModel,
    /// Collection settings.
    pub collection: CollectionConfig,
    /// Per-rank compute slowdown factors (fault injection: a rank listed
    /// here runs its compute `factor`× slower — a degraded node, thermal
    /// throttling, OS noise). Ranks not listed run at factor 1.0.
    pub rank_slowdown: HashMap<u32, f64>,
    /// Hard-fault injection plan (crashes, hangs, message drops, sample
    /// loss, stack truncation, PMU corruption). Inert by default.
    pub faults: FaultPlan,
    /// Worker threads simulating ranks. `None` (the default) sizes the
    /// pool to `min(nranks, available_parallelism)`; `Some(1)` forces a
    /// fully serial simulation. Results are bit-identical either way —
    /// the engine runs the same phase algorithm and merges per-rank
    /// shards in rank order — so this is purely a wall-clock knob.
    pub sim_workers: Option<usize>,
    /// Observability handle. Disabled by default: the engine then takes
    /// no timestamps and records no spans, and simulation results are
    /// byte-identical to an unobserved run either way (spans measure the
    /// *host* clock, never virtual time).
    pub obs: obs::Obs,
}

impl RunConfig {
    /// A run with `nranks` processes and defaults everywhere else.
    pub fn new(nranks: u32) -> Self {
        RunConfig {
            nranks,
            nthreads: 1,
            params: HashMap::new(),
            seed: 0x5EED,
            network: NetworkModel::default(),
            collection: CollectionConfig::default(),
            rank_slowdown: HashMap::new(),
            faults: FaultPlan::default(),
            sim_workers: None,
            obs: obs::Obs::disabled(),
        }
    }

    /// Attach an observability handle; the engine records phase,
    /// per-rank-segment and merge spans on it (host wall-clock).
    pub fn with_obs(mut self, obs: obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Pin the simulation worker-pool size (`1` = serial).
    pub fn with_sim_workers(mut self, workers: usize) -> Self {
        self.sim_workers = Some(workers.max(1));
        self
    }

    /// Set threads per process.
    pub fn with_threads(mut self, nthreads: u32) -> Self {
        self.nthreads = nthreads;
        self
    }

    /// Override a scale parameter.
    pub fn with_param(mut self, name: &str, value: f64) -> Self {
        self.params.insert(name.to_string(), value);
        self
    }

    /// Set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the collection configuration.
    pub fn with_collection(mut self, collection: CollectionConfig) -> Self {
        self.collection = collection;
        self
    }

    /// Inject a degraded node: rank `rank` computes `factor`× slower.
    pub fn with_slow_rank(mut self, rank: u32, factor: f64) -> Self {
        self.rank_slowdown.insert(rank, factor);
        self
    }

    /// Install a hard-fault injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_monotone_in_size() {
        let net = NetworkModel::default();
        assert!(net.transfer_us(1 << 20) > net.transfer_us(64));
        assert!(net.transfer_us(0) >= net.latency_us);
    }

    #[test]
    fn builder_chain() {
        let cfg = RunConfig::new(64)
            .with_threads(4)
            .with_param("n", 256.0)
            .with_seed(7)
            .with_collection(CollectionConfig::off());
        assert_eq!(cfg.nranks, 64);
        assert_eq!(cfg.nthreads, 4);
        assert_eq!(cfg.params["n"], 256.0);
        assert_eq!(cfg.seed, 7);
        assert!(cfg.collection.sampling_period_us.is_none());
    }

    #[test]
    fn sim_worker_knob() {
        assert_eq!(RunConfig::new(4).sim_workers, None);
        assert_eq!(RunConfig::new(4).with_sim_workers(1).sim_workers, Some(1));
        assert_eq!(RunConfig::new(4).with_sim_workers(3).sim_workers, Some(3));
        // Zero is clamped: a pool always has at least one worker.
        assert_eq!(RunConfig::new(4).with_sim_workers(0).sim_workers, Some(1));
    }

    #[test]
    fn presets() {
        assert!(CollectionConfig::off().sampling_period_us.is_none());
        assert!(!CollectionConfig::sampling().trace_events);
        assert!(CollectionConfig::tracing().trace_events);
        assert_eq!(
            CollectionConfig::sampling().sampling_period_us,
            Some(5000.0) // 200 Hz
        );
    }
}
