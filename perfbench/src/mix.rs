//! The three workloads: which requests a run sends, and in what order.
//!
//! Every list is a pure function of `(workload, seed, seconds)`. A run
//! makes a fixed number of passes over a fixed set of distinct requests
//! — no duration cut-off — so two runs of one seed do the same work and
//! receive the same replies, and the passes of one run are identical
//! work whose median time is robust to bursts of host contention.

use csqp_core::Policy;
use csqp_cost::Objective;
use csqp_serve::load::{nth_request, LoadConfig};
use csqp_serve::proto::{OptimizerMode, QueryRequest};
use csqp_serve::server::fnv1a;
use csqp_simkernel::rng::SimRng;
use csqp_workload::{WorkloadSpec, MODERATE_SEL};

/// Connections (and server workers) every workload uses on a host with
/// enough cores; a host with fewer cores runs one per core over the same
/// request list.
pub const CONNECTIONS: usize = 2;

/// Requests per segment of the warm pass: about 0.15 s of memo misses
/// on the tuning host, so each segment has a probe of its own.
pub const WARM_SEGMENT: usize = 60;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `nth_request` serving mix, two-phase planning per request.
    ServePlan,
    /// The same mix, two-step planning from a memo warmed in set-up.
    ServeHot,
    /// The paper's 10-way chain join with a seeded policy and cache mix.
    Paper10Way,
}

impl Workload {
    /// Parse a workload name as given to `--workload`.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-plan" => Some(Workload::ServePlan),
            "serve-hot" => Some(Workload::ServeHot),
            "paper-10way" => Some(Workload::Paper10Way),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePlan => "serve-plan",
            Workload::ServeHot => "serve-hot",
            Workload::Paper10Way => "paper-10way",
        }
    }

    /// Distinct requests in one pass. Every pass of the timed phase
    /// sends each of them once, so passes are identical work.
    fn distinct(self) -> usize {
        match self {
            Workload::ServePlan => 720,
            Workload::ServeHot => 540,
            Workload::Paper10Way => 180,
        }
    }

    /// Requests per second of `--seconds` that size the fixed number of
    /// passes; the measured throughput is whatever the run achieves. At
    /// `--seconds 20` this gives 5 passes on `serve-plan`, 37 on
    /// `serve-hot` and 4 on `paper-10way`, whose timed phase then takes
    /// about 27 s on the tuning host so that it has 720 latency samples.
    fn sizing_qps(self) -> f64 {
        match self {
            Workload::ServePlan => 195.0,
            Workload::ServeHot => 1000.0,
            Workload::Paper10Way => 36.0,
        }
    }

    /// Distinct requests per segment of a pass. A host-speed probe runs
    /// before every segment (`probe.rs`), so a segment lasts about 0.3 s
    /// on the tuning host: short enough that the probe describes it,
    /// long enough that the probe costs about 5% of the run.
    fn segment(self) -> usize {
        match self {
            Workload::ServePlan => 72,
            Workload::ServeHot => 540,
            Workload::Paper10Way => 10,
        }
    }

    /// How many times `setup_s` is measured before the timed phase (the
    /// median is reported). Without a warm pass, as many again are
    /// measured at the end of the run.
    pub fn setups(self) -> usize {
        match self {
            Workload::ServeHot => 5,
            _ => 7,
        }
    }
}

/// The requests of one run.
pub struct Mix {
    /// The distinct requests of one pass.
    pub unique: Vec<QueryRequest>,
    /// Passes the timed phase makes over `unique`.
    pub passes: usize,
    /// Distinct requests per segment; `unique.len()` is a multiple.
    pub segment: usize,
    /// Requests of the untimed warm pass (`serve-hot` only).
    pub warm: Vec<usize>,
}

impl Mix {
    /// Requests the timed phase sends.
    pub fn timed_len(&self) -> usize {
        self.passes * self.unique.len()
    }

    /// Segments the timed phase is cut into.
    pub fn segments(&self) -> usize {
        self.timed_len() / self.segment
    }

    /// The segment timed position `p` belongs to.
    pub fn segment_of(&self, p: usize) -> usize {
        p / self.segment
    }

    /// The request sent in `pass` for distinct request `u`, with an id
    /// unique within the run.
    pub fn timed_request(&self, pass: usize, u: usize) -> QueryRequest {
        let mut req = self.unique[u].clone();
        req.id = (pass * self.unique.len() + u) as u64 + 1;
        req
    }
}

/// Build the request list of `workload` for `seed`. The number of passes
/// is sized so the timed phase lasts about `seconds` on the tuning host;
/// it never depends on how fast a run goes.
pub fn build(workload: Workload, seed: u64, seconds: u64) -> Mix {
    let distinct = workload.distinct();
    let passes =
        ((seconds.max(1) as f64 * workload.sizing_qps() / distinct as f64).round() as usize).max(3);
    let unique = match workload {
        Workload::ServePlan | Workload::ServeHot => {
            let optimizer = if workload == Workload::ServeHot {
                OptimizerMode::TwoStep
            } else {
                OptimizerMode::TwoPhase
            };
            let cfg = LoadConfig {
                seed,
                optimizer,
                ..LoadConfig::default()
            };
            stratified(&cfg, distinct)
        }
        Workload::Paper10Way => paper_10way(seed, distinct),
    };
    let warm = if workload == Workload::ServeHot {
        (0..distinct).collect()
    } else {
        Vec::new()
    };
    Mix {
        unique,
        passes,
        segment: workload.segment(),
        warm,
    }
}

/// `n` requests drawn from the `nth_request` mix, stratified: the mix
/// picks shape (chain / star / SPJ), size (2–5 relations) and policy
/// (DS / QS / HY) uniformly, and this keeps the first `n / 36` draws of
/// each of those 36 cells, so every run has exactly the mix's expected
/// shares. Cache state, chain selectivity and seeds stay as drawn. Without
/// this, a few heavy draws move a run's throughput by tens of percent
/// from one seed to the next.
///
/// The kept draws of each cell alternate between even and odd positions,
/// so with two connections each sends half of every cell.
fn stratified(cfg: &LoadConfig, n: usize) -> Vec<QueryRequest> {
    let per_cell = n / 36;
    let mut taken = [0usize; 36];
    let mut halves: [Vec<QueryRequest>; 2] = [Vec::new(), Vec::new()];
    let mut index = 0;
    while halves[0].len() + halves[1].len() < per_cell * 36 {
        let req = nth_request(cfg, 0, index);
        index += 1;
        let (shape, relations) = match req.spec {
            WorkloadSpec::Chain { n, .. } => (0, n),
            WorkloadSpec::Star { n, .. } => (1, n),
            WorkloadSpec::Spj { n, .. } => (2, n),
        };
        let policy = match req.policy {
            Policy::DataShipping => 0,
            Policy::QueryShipping => 1,
            Policy::HybridShipping => 2,
        };
        let cell = (shape * 4 + (relations as usize - 2)) * 3 + policy;
        if taken[cell] < per_cell {
            halves[taken[cell] % 2].push(req);
            taken[cell] += 1;
        }
    }
    let [even, odd] = halves.map(Vec::into_iter);
    let mut out: Vec<QueryRequest> = Vec::with_capacity(n);
    for (a, b) in even
        .map(Some)
        .zip(odd.map(Some).chain(std::iter::repeat_with(|| None)))
    {
        out.extend(a.into_iter().chain(b));
    }
    for (i, req) in out.iter_mut().enumerate() {
        req.id = i as u64 + 1;
    }
    out
}

/// `n` requests (a multiple of 30) for the paper's 10-way chain join
/// (Figs 6, 8, 10). Each block of three requests is one cache scenario
/// run under DS, QS and HY, as the paper compares the policies. A
/// scenario caches four relations 0%, three 25% and three 50%. Every ten
/// scenarios take one seeded order of those fractions and its ten
/// rotations, so each relation is cached at each level equally often
/// and seeds differ only in which relations share a scenario. Over seeds
/// 1–10 this halved the quartile spread of `pages_per_query` against
/// independent shuffles per scenario (0.017 to 0.010).
fn paper_10way(seed: u64, n: usize) -> Vec<QueryRequest> {
    let spec = WorkloadSpec::Chain {
        n: 10,
        selectivity: MODERATE_SEL,
    };
    let mut rng = SimRng::seed_from_u64(seed ^ 0x10_3A_7E);
    let mut order = vec![0.0, 0.0, 0.0, 0.0, 0.25, 0.25, 0.25, 0.5, 0.5, 0.5];
    let mut out = Vec::with_capacity(n);
    for block in 0..n / 3 {
        if block % order.len() == 0 {
            rng.shuffle(&mut order);
        }
        let mut cache = order.clone();
        cache.rotate_left(block % order.len());
        let policies = [
            Policy::DataShipping,
            Policy::QueryShipping,
            Policy::HybridShipping,
        ];
        for (k, policy) in policies.into_iter().enumerate() {
            let index = (block * 3 + k) as u64;
            out.push(QueryRequest {
                id: index + 1,
                spec: spec.clone(),
                cache: cache.clone(),
                policy,
                objective: Objective::ResponseTime,
                optimizer: OptimizerMode::TwoPhase,
                seed: query_seed(seed, index),
                loads: vec![],
                deadline_ms: None,
                keys: None,
            });
        }
    }
    out
}

/// Per-query simulation and search seed, kept in the wire's exact
/// integer range.
fn query_seed(seed: u64, index: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&seed.to_be_bytes());
    bytes[8..].copy_from_slice(&index.to_be_bytes());
    fnv1a(&bytes) & (csqp_serve::proto::MAX_SAFE_INT - 1)
}
