//! End-to-end benchmark of the fair-package server.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mono --seed 1 --seconds 36 --trace 0
//! ```
//!
//! One process, at most two busy threads: this client thread and one
//! `Server` dispatcher over an engine pinned to sequential execution.
//! A run sets the server up, then runs whole rounds — a write phase
//! (drain the server, reclaim the engine, apply the writes, restart)
//! followed by a serving phase — until `--seconds` have passed, setting
//! up afresh `SETUP_REPS - 1` more times at even intervals. Every package is checked; a seeded sample is recomputed
//! by the oracle. `--trace 1` replays requests stage by stage and prints
//! the per-layer metrics instead of the end-to-end ones. The last line of
//! standard output is the JSON result. README.md has the details.

mod cohort;
mod oracle;
mod shadow;
mod stats;
mod trace;

use cohort::{Event, EventGen, Request, RequestGen, Rng};
use fairrec_core::predictions::{compute_group_predictions_from_peers, GroupPredictionConfig};
use fairrec_core::{algorithm1, plain_top_z, CandidatePool, FairnessEvaluator};
use fairrec_engine::{
    BatchPeerMaintenance, EngineConfig, GroupRecommendation, IngestOp, PeerBackend,
    PeerMaintenance, RatingStore, RecommenderEngine, Server, ServerConfig, ServerStats,
};
use fairrec_metrics::{package_metrics, FairnessMonitor, MonitorConfig};
use fairrec_ontology::snomed::clinical_fragment;
use fairrec_types::{Deadline, ItemId, MonitorStats, Parallelism, RatingsRead, UserId};
use shadow::Relation;
use stats::{mean, median, percentile, Metrics};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{TimedObserver, Tracer};

/// Set-ups per run, spread evenly over it so that `setup_s`, their
/// median, samples the same machine conditions as the serving figures.
const SETUP_REPS: u32 = 5;
/// The serving percentile reported beside the median: at the request
/// counts of a run it keeps at least ten samples beyond it.
const TAIL: f64 = 0.9;
/// Bounds on the replayed stages' share of a direct request (summed over
/// a traced run): the replay must account for the request.
const REPLAY_SHARE: (f64, f64) = (0.85, 1.10);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    ServeMono,
    ServeSharded,
    IngestMixed,
}

/// What one round of a workload does.
#[derive(Debug, Clone, Copy)]
struct Shape {
    shards: Option<u32>,
    requests: usize,
    in_flight: usize,
    puts: usize,
    removes: usize,
    batch: usize,
    /// One request in this many is recomputed by the oracle.
    oracle_one_in: u64,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "serve_mono" => Some(Self::ServeMono),
            "serve_sharded" => Some(Self::ServeSharded),
            "ingest_mixed" => Some(Self::IngestMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::ServeMono => "serve_mono",
            Self::ServeSharded => "serve_sharded",
            Self::IngestMixed => "ingest_mixed",
        }
    }

    fn shape(self) -> Shape {
        let serve = Shape {
            shards: None,
            requests: 16,
            in_flight: 4,
            puts: 4,
            removes: 0,
            batch: 2,
            oracle_one_in: 8,
        };
        match self {
            Self::ServeMono => serve,
            Self::ServeSharded => Shape {
                shards: Some(8),
                oracle_one_in: 4,
                ..serve
            },
            Self::IngestMixed => Shape {
                shards: None,
                requests: 1,
                in_flight: 1,
                puts: 4,
                removes: 1,
                batch: 3,
                oracle_one_in: 4,
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    };
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be a positive number".into());
    }
    Ok(args)
}

/// Attempted and failed operations of one kind.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// Waits until the server's last dispatcher job has let go of the
/// engine, then takes it back for writing.
fn reclaim(mut engine: Arc<RecommenderEngine>) -> RecommenderEngine {
    loop {
        match Arc::try_unwrap(engine) {
            Ok(engine) => return engine,
            Err(shared) => {
                engine = shared;
                std::thread::yield_now();
            }
        }
    }
}

/// `for_each_rater` over `items`, once per member: Equation 1's walk of
/// the relation without its peer lookups.
fn rater_scan<R: RatingsRead + ?Sized>(reads: &R, items: &[ItemId], members: usize) -> f64 {
    let mut sum = 0.0;
    for _ in 0..members {
        for &item in items {
            reads.for_each_rater(item, &mut |_, r| sum += r);
        }
    }
    sum
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Bench {
    workload: Workload,
    seed: u64,
    shape: Shape,
    config: EngineConfig,
    tracer: Option<Arc<Tracer>>,
    server: Option<Server>,
    monitor: Arc<FairnessMonitor>,
    timed: Option<Arc<TimedObserver>>,
    relation: Relation,
    requests: RequestGen,
    events: EventGen,
    oracle_pick: Rng,
    errors: Vec<String>,

    // Operation counts.
    request_tally: Tally,
    put_tally: Tally,
    remove_tally: Tally,
    batch_tally: Tally,
    packages: u64,
    /// Packages served since the live engine was set up.
    live_packages: u64,
    /// Final counters of each retired engine's monitor.
    monitor_stats: Vec<MonitorStats>,
    oracle_checked: u64,
    server_stats: ServerStats,
    fairness: Vec<f64>,
    worst_member: Vec<f64>,

    // End-to-end samples.
    setup_s: Vec<f64>,
    /// `VmHWM` once set-up is done: the warm engine's footprint.
    setup_rss_mb: f64,
    latency_ms: Vec<f64>,
    /// Completed requests per second of each serving phase.
    phase_rps: Vec<f64>,
    single_write_ms: Vec<f64>,
    /// Events per second inside the write calls of each write phase.
    phase_events_per_s: Vec<f64>,

    // Traced-run samples.
    setup_stages: [Vec<f64>; 3],
    traced_latency_ms: Vec<f64>,
    delivery_lag_ms: Vec<f64>,
    restart_ms: Vec<f64>,
    touched: Vec<f64>,
    masses: Vec<(f64, f64)>,
    peers_per_member: Vec<f64>,
    candidates: Vec<f64>,
}

/// Set-up: generate the cohort, build the engine, warm the peer index,
/// start the server. Returns the server, the monitor, the benchmark's
/// copy of the relation, the request generator, and the stage times
/// (generate, build, warm, start) in seconds.
fn set_up(
    seed: u64,
    config: EngineConfig,
) -> (Server, Arc<FairnessMonitor>, Relation, RequestGen, [f64; 4]) {
    let t = Instant::now();
    let ontology = clinical_fragment();
    let data = cohort::generate(seed, &ontology);
    let generate = t.elapsed();
    // The benchmark's own bookkeeping stays out of the timed stages.
    let relation = Relation::from_matrix(&data.matrix);
    let requests = RequestGen::new(Rng::new(seed).fork(2), &data);
    let t = Instant::now();
    let mut engine = RecommenderEngine::new(data.matrix, data.profiles, ontology, config)
        .expect("the benchmark's engine configuration is valid");
    let build = t.elapsed();
    let t = Instant::now();
    engine.warm_peer_index();
    let warm = t.elapsed();
    let t = Instant::now();
    let monitor = Arc::new(FairnessMonitor::new(
        MonitorConfig::default(),
        engine.ratings().reads(),
    ));
    engine.set_observer(monitor.clone());
    let server = Server::new(Arc::new(engine), server_config());
    let start = t.elapsed();
    (
        server,
        monitor,
        relation,
        requests,
        [
            generate.as_secs_f64(),
            build.as_secs_f64(),
            warm.as_secs_f64(),
            start.as_secs_f64(),
        ],
    )
}

impl Bench {
    fn new(args: &Args) -> Self {
        let shape = args.workload.shape();
        let config = EngineConfig {
            parallelism: Parallelism::Sequential,
            num_shards: shape.shards,
            ..EngineConfig::default()
        };
        let tracer = args.trace.then(|| Arc::new(Tracer::new()));
        let (server, monitor, relation, requests, times) = set_up(args.seed, config);
        let setup_rss_mb = stats::peak_rss_mb();
        let mut bench = Self {
            workload: args.workload,
            seed: args.seed,
            shape,
            config,
            tracer,
            server: Some(server),
            monitor,
            timed: None,
            relation,
            requests,
            events: EventGen::new(Rng::new(args.seed).fork(3)),
            oracle_pick: Rng::new(args.seed).fork(4),
            errors: Vec::new(),
            request_tally: Tally::default(),
            put_tally: Tally::default(),
            remove_tally: Tally::default(),
            batch_tally: Tally::default(),
            packages: 0,
            live_packages: 0,
            monitor_stats: Vec::new(),
            oracle_checked: 0,
            server_stats: ServerStats::default(),
            fairness: Vec::new(),
            worst_member: Vec::new(),
            setup_s: Vec::new(),
            setup_rss_mb,
            latency_ms: Vec::new(),
            phase_rps: Vec::new(),
            single_write_ms: Vec::new(),
            phase_events_per_s: Vec::new(),
            setup_stages: Default::default(),
            traced_latency_ms: Vec::new(),
            delivery_lag_ms: Vec::new(),
            restart_ms: Vec::new(),
            touched: Vec::new(),
            masses: Vec::new(),
            peers_per_member: Vec::new(),
            candidates: Vec::new(),
        };
        bench.went_live(times);
        bench
    }

    /// Records a set-up's stage times and wraps its monitor for tracing.
    fn went_live(&mut self, times: [f64; 4]) {
        self.setup_s.push(times.iter().sum());
        for (dst, v) in self.setup_stages.iter_mut().zip(times) {
            dst.push(v);
        }
        self.timed = self
            .tracer
            .as_ref()
            .map(|t| Arc::new(TimedObserver::new(self.monitor.clone(), t.clone())));
        self.live_packages = 0;
    }

    /// Retires the live engine and serves on from a fresh set-up of the
    /// same cohort; the writes start again from the generated relation.
    fn set_up_again(&mut self) {
        self.retire();
        let (server, monitor, relation, _, times) = set_up(self.seed, self.config);
        self.server = Some(server);
        self.monitor = monitor;
        self.relation = relation;
        self.went_live(times);
    }

    fn error(&mut self, message: String) {
        if self.errors.len() < 20 {
            eprintln!("check failed: {message}");
        }
        self.errors.push(message);
    }

    /// Runs `f`, timed; inside a span when `spanned` (which only a
    /// traced run asks for).
    fn timed<T>(
        &self,
        spanned: bool,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let t = Instant::now();
        let out = match (&self.tracer, spanned) {
            (Some(tracer), true) => tracer.scope(name, request, f),
            _ => f(),
        };
        (out, t.elapsed())
    }

    /// One round: a write phase, then a serving phase whose packages are
    /// checked. In a traced run every other round is traced and its
    /// requests are replayed stage by stage.
    fn round(&mut self, index: u64) {
        let traced = self.tracer.is_some() && index.is_multiple_of(2);
        self.write_phase(index, traced);
        let served = self.serve_phase(traced);
        self.verify(&served);
        if traced {
            for (request, rec) in &served {
                if request.id.is_multiple_of(2) {
                    self.replay(request, rec);
                }
            }
        }
    }

    fn write_phase(&mut self, phase: u64, traced: bool) {
        let server = self.server.take().expect("the server runs between phases");
        let ((mut engine, stats), drain) =
            self.timed(self.tracer.is_some(), "serving.drain", Some(phase), || {
                let engine = Arc::clone(server.engine());
                let stats = server.shutdown();
                drop(server);
                (reclaim(engine), stats)
            });
        self.add_stats(stats);

        let mut busy = Duration::ZERO;
        for _ in 0..self.shape.puts {
            let (user, item, score) = self.events.put(&self.relation, &[]);
            busy += self.single_write(&mut engine, Event::Put { user, item, score });
        }
        for _ in 0..self.shape.removes {
            let event = self.events.remove(&self.relation);
            busy += self.single_write(&mut engine, event);
        }
        if self.shape.batch > 0 {
            let mut batch: Vec<(UserId, ItemId, f64)> = Vec::new();
            let mut taken = Vec::new();
            for _ in 0..self.shape.batch {
                let (user, item, score) = self.events.put(&self.relation, &taken);
                taken.push((user, item));
                batch.push((user, item, score));
            }
            busy += self.batch_write(&mut engine, batch);
        }
        let events = self.shape.puts + self.shape.removes + self.shape.batch;
        self.phase_events_per_s
            .push(events as f64 / busy.as_secs_f64());

        if let (Some(timed), true) = (&self.timed, traced) {
            engine.set_observer(timed.clone());
        } else {
            engine.set_observer(self.monitor.clone());
        }
        let (server, start) =
            self.timed(self.tracer.is_some(), "serving.start", Some(phase), || {
                Server::new(Arc::new(engine), server_config())
            });
        self.server = Some(server);
        self.restart_ms.push(ms(drain + start));
    }

    /// Adds a drained server's final counters to the run's, checking
    /// that it lost, rejected or merged no request.
    fn add_stats(&mut self, s: ServerStats) {
        if s.coalesced != 0
            || s.completed != s.submitted
            || s.rejected_queue_full + s.rejected_deadline + s.panics_caught + s.budget_cancelled
                != 0
        {
            self.error(format!(
                "server counters show lost, rejected or merged requests: {s:?}"
            ));
        }
        let t = &mut self.server_stats;
        t.submitted += s.submitted;
        t.coalesced += s.coalesced;
        t.completed += s.completed;
        t.batches += s.batches;
        t.rejected_queue_full += s.rejected_queue_full;
        t.rejected_deadline += s.rejected_deadline;
        t.panics_caught += s.panics_caught;
        t.budget_cancelled += s.budget_cancelled;
    }

    /// Applies one single-rating write; returns the time inside the call.
    fn single_write(&mut self, engine: &mut RecommenderEngine, event: Event) -> Duration {
        let (name, result) = match event {
            Event::Put { user, item, score } => {
                let (r, d) =
                    self.timed(self.tracer.is_some(), "engine.ingest_rating", None, || {
                        engine.ingest_rating(user, item, score)
                    });
                ("ingest_rating", (r, d))
            }
            Event::Remove { user, item } => {
                let (r, d) =
                    self.timed(self.tracer.is_some(), "engine.remove_rating", None, || {
                        engine.remove_rating(user, item)
                    });
                ("remove_rating", (r, d))
            }
        };
        let (result, took) = result;
        self.single_write_ms.push(ms(took));
        let tally = match event {
            Event::Put { .. } => &mut self.put_tally,
            Event::Remove { .. } => &mut self.remove_tally,
        };
        tally.attempted += 1;
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                tally.failed += 1;
                eprintln!("{name} failed: {e}");
                return took;
            }
        };
        let expected = match event {
            Event::Put { user, item, score } => self.relation.put(user, item, score),
            Event::Remove { user, item } => self.relation.remove(user, item),
        };
        let op_ok = match (event, expected, report.op) {
            (Event::Put { .. }, None, IngestOp::Inserted) => true,
            (Event::Put { .. }, Some(p), IngestOp::Updated { previous }) => p == previous,
            (Event::Remove { .. }, Some(p), IngestOp::Removed { previous }) => p == previous,
            _ => false,
        };
        if !op_ok {
            self.error(format!(
                "{name} {event:?} reported {:?}; the shadow relation held {expected:?}",
                report.op
            ));
        }
        match report.peers {
            PeerMaintenance::DeltaSpliced { touched } => self.touched.push(touched as f64),
            other => self.error(format!(
                "{name} on a warm index maintained peers by {other:?}"
            )),
        }
        took
    }

    /// Applies one small batch; returns the time inside the call.
    fn batch_write(
        &mut self,
        engine: &mut RecommenderEngine,
        batch: Vec<(UserId, ItemId, f64)>,
    ) -> Duration {
        let n = batch.len() as u64;
        let (result, took) =
            self.timed(self.tracer.is_some(), "engine.ingest_ratings", None, || {
                engine.ingest_ratings(batch.iter().copied())
            });
        self.batch_tally.attempted += n;
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                self.batch_tally.failed += n;
                eprintln!("ingest_ratings failed: {e}");
                return took;
            }
        };
        for &(user, item, score) in &batch {
            self.relation.put(user, item, score);
        }
        self.masses
            .push((report.delta_mass as f64, report.blanket_mass as f64));
        let routed = matches!(report.peers, BatchPeerMaintenance::DeltaReplayed { .. });
        if report.applied != batch.len() || !routed || report.delta_mass >= report.blanket_mass {
            self.error(format!(
                "a {}-event batch reported {report:?}; expected a delta replay below the blanket mass",
                batch.len()
            ));
        }
        took
    }

    /// Keeps `in_flight` requests outstanding through `submit`/`wait`.
    fn serve_phase(&mut self, traced: bool) -> Vec<(Request, Arc<GroupRecommendation>)> {
        let requests: Vec<Request> = (0..self.shape.requests)
            .map(|_| self.requests.next())
            .collect();
        if let (Some(timed), true) = (&self.timed, traced) {
            let mut map = timed.requests.lock().expect("request map lock");
            for r in &requests {
                map.insert((r.group.members().to_vec(), r.z), r.id);
            }
        }
        let server = self.server.take().expect("the server runs between phases");
        let mut in_flight = VecDeque::new();
        let mut served = Vec::with_capacity(requests.len());
        let start = Instant::now();
        for request in requests {
            if in_flight.len() >= self.shape.in_flight {
                let next = in_flight.pop_front().expect("non-empty");
                self.collect(next, traced, &mut served);
            }
            let sent = Instant::now();
            self.request_tally.attempted += 1;
            let (submitted, _) = self.timed(traced, "serving.submit", Some(request.id), || {
                server.submit(request.group.clone(), request.z, Deadline::none())
            });
            match submitted {
                Ok(ticket) => in_flight.push_back((request, sent, ticket)),
                Err(e) => {
                    self.request_tally.failed += 1;
                    eprintln!("submit failed: {e}");
                }
            }
        }
        while let Some(next) = in_flight.pop_front() {
            self.collect(next, traced, &mut served);
        }
        self.phase_rps
            .push(served.len() as f64 / start.elapsed().as_secs_f64());
        self.server = Some(server);
        served
    }

    fn collect(
        &mut self,
        (request, sent, ticket): (Request, Instant, fairrec_engine::Ticket),
        traced: bool,
        served: &mut Vec<(Request, Arc<GroupRecommendation>)>,
    ) {
        let (result, _) = self.timed(traced, "serving.wait", Some(request.id), || ticket.wait());
        let latency = ms(sent.elapsed());
        let rec = match result {
            Ok(rec) => rec,
            Err(e) => {
                self.request_tally.failed += 1;
                eprintln!("request failed: {e}");
                return;
            }
        };
        if traced {
            self.traced_latency_ms.push(latency);
            let tracer = self.tracer.as_ref().expect("traced");
            let now = tracer.now();
            let seen = self.timed.as_ref().and_then(|t| {
                t.observed_at
                    .lock()
                    .expect("observation map lock")
                    .get(&request.id)
                    .copied()
            });
            match seen {
                Some(at) => self
                    .delivery_lag_ms
                    .push(now.saturating_sub(at) as f64 / 1e6),
                None => self.error(format!("request {} was never observed", request.id)),
            }
        } else {
            self.latency_ms.push(latency);
        }
        self.packages += 1;
        self.live_packages += 1;
        served.push((request, rec));
    }

    /// Package properties on every request; the oracle on a seeded sample.
    fn verify(&mut self, served: &[(Request, Arc<GroupRecommendation>)]) {
        let mut means = None;
        for (request, rec) in served {
            let members = request.group.members();
            if let Err(e) = oracle::check_properties(&self.relation, members, request.z, rec) {
                self.error(format!("request {}: {e}", request.id));
            }
            let metrics = package_metrics(rec);
            self.fairness.push(metrics.fairness);
            self.worst_member.push(metrics.worst_member_utility);
            if self.oracle_pick.below(self.shape.oracle_one_in) == 0 {
                let means = means.get_or_insert_with(|| oracle::means(&self.relation));
                let truth = oracle::GroupOracle::new(&self.relation, means, members);
                if let Err(e) = oracle::check_package(&truth, members, oracle::K, rec) {
                    self.error(format!("request {} against the oracle: {e}", request.id));
                }
                self.oracle_checked += 1;
            }
        }
    }

    /// Replays one request stage by stage through the public functions
    /// the engine composes, and serves it once more directly; the two
    /// must select the served package.
    fn replay(&mut self, request: &Request, served: &GroupRecommendation) {
        let tracer = self.tracer.clone().expect("traced");
        let engine = Arc::clone(self.server.as_ref().expect("server").engine());
        let id = Some(request.id);
        let (group, z, k) = (&request.group, request.z, self.config.k);
        let members = group.members();
        let cfg = GroupPredictionConfig {
            aggregation: self.config.aggregation,
            missing: self.config.missing,
            parallelism: self.config.parallelism,
        };
        let pool_size = self.config.pool_size;
        let pad = self.config.pad_to_z;
        let mut peer_counts = 0usize;
        let mut candidates = 0usize;
        let mut scan_items = Vec::new();
        let mut stages = || {
            tracer.scope("replay", id, || -> fairrec_types::Result<Vec<ItemId>> {
                let peers =
                    tracer.scope("similarity.group_peers", id, || match engine.peer_index() {
                        PeerBackend::Mono(index) => index.group_peers(engine.measure(), members),
                        PeerBackend::Sharded(index) => index.group_peers(engine.measure(), members),
                    });
                peer_counts = peers.iter().map(|(_, p)| p.len()).sum();
                // The same dispatch as the engine: the monolithic matrix
                // statically, the sharded store through `dyn RatingsRead`.
                let predictions = tracer.scope("core.predict", id, || match engine.ratings() {
                    RatingStore::Mono(matrix) => {
                        compute_group_predictions_from_peers(matrix.as_ref(), peers, group, cfg)
                    }
                    RatingStore::Sharded(_) => compute_group_predictions_from_peers(
                        engine.ratings().reads(),
                        peers,
                        group,
                        cfg,
                    ),
                })?;
                candidates = predictions.num_items();
                scan_items = predictions.items().to_vec();
                let pool = tracer.scope("core.pool", id, || {
                    CandidatePool::from_predictions(&predictions, pool_size)
                })?;
                let positions = tracer.scope(
                    "core.select",
                    id,
                    || -> fairrec_types::Result<Vec<usize>> {
                        let evaluator = FairnessEvaluator::new(&pool, k)?;
                        let mut positions = algorithm1(&pool, z, k).positions;
                        let target = z.min(pool.num_items());
                        if pad && positions.len() < target {
                            for j in plain_top_z(&pool, pool.num_items()).positions {
                                if positions.len() == target {
                                    break;
                                }
                                if !positions.contains(&j) {
                                    positions.push(j);
                                }
                            }
                        }
                        black_box(&evaluator);
                        Ok(positions)
                    },
                )?;
                Ok(positions.iter().map(|&j| pool.items()[j]).collect())
            })
        };
        let direct = || {
            tracer.scope("engine.recommend", id, || {
                engine.recommend_for_group(group, z)
            })
        };
        // Alternate which runs first so neither always finds warm caches.
        let (replayed, direct) = if request.id.is_multiple_of(4) {
            let r = stages();
            (r, direct())
        } else {
            let d = direct();
            (stages(), d)
        };
        tracer.scope("types.rater_scan", id, || {
            black_box(match engine.ratings() {
                RatingStore::Mono(matrix) => {
                    rater_scan(matrix.as_ref(), &scan_items, members.len())
                }
                RatingStore::Sharded(_) => {
                    rater_scan(engine.ratings().reads(), &scan_items, members.len())
                }
            })
        });
        self.peers_per_member
            .push(peer_counts as f64 / members.len() as f64);
        self.candidates.push(candidates as f64);
        let served_items: Vec<ItemId> = served.items.iter().map(|i| i.item).collect();
        if direct.is_ok() {
            self.packages += 1;
            self.live_packages += 1;
        }
        match (replayed, direct) {
            (Ok(replayed), Ok(direct)) => {
                let direct_items: Vec<ItemId> = direct.items.iter().map(|i| i.item).collect();
                if replayed != direct_items || direct_items != served_items {
                    self.error(format!(
                        "request {}: replayed stages select {replayed:?}, the engine {direct_items:?}, the server {served_items:?}",
                        request.id
                    ));
                }
            }
            (r, d) => self.error(format!(
                "request {}: replay failed ({:?} / {:?})",
                request.id,
                r.err(),
                d.err()
            )),
        }
    }

    /// Drains the server and checks the live engine's end state: its
    /// relation equals the shadow, and its monitor evaluated every
    /// package it served.
    fn retire(&mut self) {
        let server = self.server.take().expect("server");
        let engine = Arc::clone(server.engine());
        let stats = server.shutdown();
        drop(server);
        self.add_stats(stats);
        let engine = reclaim(engine);
        if let Err(e) = self.relation.equals_triples(&engine.ratings().to_triples()) {
            self.error(format!("engine retired with {e}"));
        }
        let m = self.monitor.stats();
        if m.evaluated != self.live_packages || m.observed != self.live_packages {
            self.error(format!(
                "the monitor observed {} and evaluated {} of {} packages",
                m.observed, m.evaluated, self.live_packages
            ));
        }
        self.monitor_stats.push(m);
    }

    fn attempted(&self) -> u64 {
        [
            self.request_tally,
            self.put_tally,
            self.remove_tally,
            self.batch_tally,
        ]
        .iter()
        .map(|t| t.attempted)
        .sum()
    }

    fn failed(&self) -> u64 {
        [
            self.request_tally,
            self.put_tally,
            self.remove_tally,
            self.batch_tally,
        ]
        .iter()
        .map(|t| t.failed)
        .sum()
    }

    fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        m.push("setup_s", median(&self.setup_s), "s");
        m.push("serve_p50_ms", median(&self.latency_ms), "ms");
        m.push("serve_p90_ms", percentile(&self.latency_ms, TAIL), "ms");
        m.push("serve_rps", median(&self.phase_rps), "req/s");
        m.push("ingest_p50_ms", median(&self.single_write_ms), "ms");
        m.push(
            "ingest_events_per_s",
            median(&self.phase_events_per_s),
            "events/s",
        );
        m.push("setup_rss_mb", self.setup_rss_mb, "MB");
        m
    }

    fn per_layer(&mut self, dump_to: &Path) -> Metrics {
        let tracer = self.tracer.clone().expect("traced");
        let spans = tracer.spans();
        let selfs = trace::self_times(&spans);
        if let Err(e) = trace::dump(dump_to, &spans, &selfs) {
            eprintln!("could not write spans to {}: {e}", dump_to.display());
        }
        // Per-name samples, and per-request durations of the replayed
        // stages for the accounting cross-check.
        let mut self_by_name: HashMap<&str, Vec<f64>> = HashMap::new();
        let mut by_request: HashMap<(u64, &str), f64> = HashMap::new();
        for (s, &own) in spans.iter().zip(&selfs) {
            self_by_name.entry(s.name).or_default().push(own as f64);
            if let Some(r) = s.request {
                by_request.insert((r, s.name), s.duration() as f64);
            }
        }
        let self_median = |name: &str, scale: f64| {
            self_by_name
                .get(name)
                .map_or(f64::NAN, |v| median(v) / scale)
        };
        const STAGES: [&str; 4] = [
            "similarity.group_peers",
            "core.predict",
            "core.pool",
            "core.select",
        ];
        let (mut stage_sum, mut recommend_sum) = (0.0, 0.0);
        let mut beyond = Vec::new();
        for (&(request, name), &recommend) in &by_request {
            if name != "engine.recommend" {
                continue;
            }
            let stages: f64 = STAGES
                .iter()
                .map(|s| by_request.get(&(request, *s)).copied().unwrap_or(f64::NAN))
                .sum();
            stage_sum += stages;
            recommend_sum += recommend;
            beyond.push((recommend - stages) / 1e3);
        }
        let share = stage_sum / recommend_sum;
        if !(REPLAY_SHARE.0..=REPLAY_SHARE.1).contains(&share) {
            self.error(format!(
                "replayed stages take {share:.3} of the direct request time, outside {REPLAY_SHARE:?}"
            ));
        }
        let durations = |name: &str| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration() as f64)
                .collect()
        };
        let s = self.server_stats;
        let [generate, build, warm] = &self.setup_stages;
        let mut m = Metrics::default();
        m.push("data.generate_s", median(generate), "s");
        m.push("engine.build_s", median(build), "s");
        m.push("similarity.warm_s", median(warm), "s");
        m.push(
            "similarity.group_peers_us",
            self_median("similarity.group_peers", 1e3),
            "us",
        );
        m.push(
            "similarity.peers_per_member",
            mean(&self.peers_per_member),
            "count",
        );
        m.push("core.predict_ms", self_median("core.predict", 1e6), "ms");
        m.push("core.candidates", mean(&self.candidates), "count");
        m.push("core.pool_us", self_median("core.pool", 1e3), "us");
        m.push("core.select_us", self_median("core.select", 1e3), "us");
        m.push(
            "types.rater_scan_ms",
            self_median("types.rater_scan", 1e6),
            "ms",
        );
        m.push(
            "engine.recommend_ms",
            median(&durations("engine.recommend")) / 1e6,
            "ms",
        );
        m.push("engine.assemble_observe_us", median(&beyond), "us");
        m.push(
            "metrics.observe_us",
            median(&durations("metrics.observe")) / 1e3,
            "us",
        );
        m.push(
            "metrics.evaluated",
            self.monitor_stats.iter().map(|m| m.evaluated).sum::<u64>() as f64,
            "count",
        );
        m.push(
            "serving.submit_us",
            median(&durations("serving.submit")) / 1e3,
            "us",
        );
        m.push(
            "serving.batch_size",
            s.completed as f64 / s.batches as f64,
            "count",
        );
        m.push("serving.batches", s.batches as f64, "count");
        m.push(
            "serving.delivery_lag_ms",
            median(&self.delivery_lag_ms),
            "ms",
        );
        m.push("serving.restart_ms", median(&self.restart_ms), "ms");
        m.push(
            "engine.ingest_rating_ms",
            median(&durations("engine.ingest_rating")) / 1e6,
            "ms",
        );
        m.push(
            "engine.ingest_batch_ms",
            median(&durations("engine.ingest_ratings")) / 1e6,
            "ms",
        );
        m.push("similarity.delta_touched", mean(&self.touched), "count");
        let delta: Vec<f64> = self.masses.iter().map(|m| m.0).collect();
        let blanket: Vec<f64> = self.masses.iter().map(|m| m.1).collect();
        m.push("engine.delta_mass", median(&delta), "count");
        m.push("engine.blanket_mass", median(&blanket), "count");
        m.push(
            "trace.overhead_pct",
            (median(&self.traced_latency_ms) / median(&self.latency_ms) - 1.0) * 100.0,
            "%",
        );
        m.push("trace.replay_share", share, "ratio");
        m.push("process.peak_rss_mb", stats::peak_rss_mb(), "MB");
        m
    }

    fn print_record(&self, seed: u64) {
        println!("# workload {} seed {seed}", self.workload.name());
        println!("# machine: {}", stats::machine());
        for (kind, t) in [
            ("request", self.request_tally),
            ("ingest_rating", self.put_tally),
            ("remove_rating", self.remove_tally),
            ("ingest_ratings event", self.batch_tally),
        ] {
            println!("# {kind}: attempted {} failed {}", t.attempted, t.failed);
        }
        println!(
            "# packages {} (oracle-checked {}); correctness errors {}",
            self.packages,
            self.oracle_checked,
            self.errors.len()
        );
        println!("# {:?}", self.server_stats);
        for m in &self.monitor_stats {
            println!("# {m:?}");
        }
        println!(
            "# served fairness mean {:.4}; worst-member utility mean {:.4}",
            mean(&self.fairness),
            mean(&self.worst_member)
        );
        println!(
            "# samples: {} untraced and {} traced latencies, {} single writes, {} set-ups",
            self.latency_ms.len(),
            self.traced_latency_ms.len(),
            self.single_write_ms.len(),
            self.setup_s.len()
        );
    }
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build; build with --release");
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: --workload serve_mono|serve_sharded|ingest_mixed --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    for ignored in ["FAIRREC_THREADS", "FAIRREC_BENCH_USERS"] {
        if std::env::var_os(ignored).is_some() {
            eprintln!("note: {ignored} is set and ignored; the benchmark's shape is fixed");
        }
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut bench = Bench::new(&args);
    let (mut round, mut setups) = (0, 1);
    loop {
        if setups < SETUP_REPS && start.elapsed() >= budget * setups / SETUP_REPS {
            bench.set_up_again();
            setups += 1;
        }
        bench.round(round);
        round += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    bench.retire();
    let metrics = if args.trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
        let path = dir.join("perfbench-spans").join(format!(
            "{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        let m = bench.per_layer(&path);
        println!("# spans written to {}", path.display());
        m
    } else {
        bench.end_to_end()
    };
    bench.print_record(args.seed);
    for (name, value, unit) in metrics.iter() {
        println!("# {name} = {value} {unit}");
    }
    println!(
        "{}",
        metrics.result_line(bench.errors.is_empty(), bench.attempted(), bench.failed())
    );
}
