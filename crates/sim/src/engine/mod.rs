//! The discrete-event simulation engine.
//!
//! [`Simulator`] is a facade over the generic `wlan-des` kernel
//! ([`wlan_des::Simulation`]): the WLAN mechanics live in four plug-in
//! components registered on the kernel at build time, each owning one
//! mechanism's state and the handlers for the events addressed to it:
//!
//! * [`station::StationMac`] — per-station DCF state (hot/cold SoA layout),
//!   the active-station set, the backoff timer table and the kernel tier
//!   its earliest timer is armed in, and — in a fully connected cell — the
//!   shared medium view of [`clique::Clique`]; handles `TxStart` and
//!   `AckTimeout`.
//! * [`channel::Channel`] — the in-flight transmission slab, interference
//!   bookkeeping, and the engine's private frame-error RNG stream; handles
//!   `TxEnd`, `AckStart`, `AckEnd`.
//! * [`apctl::ApControl`] — the AP-side controller, the pending-ACK latch,
//!   and the AP's busy-period/idle-slot observables; handles `StatsTick`.
//! * [`arrivals::TrafficSources`] — finite-load arrival samplers and frame
//!   queues, plus the arrival timer tier; handles `FrameArrival`. Saturated
//!   builds register it empty and it never executes.
//!
//! Cross-component calls go through the kernel's split-borrowed
//! [`Peers`](wlan_des::Peers) view — synchronous direct method calls, no
//! message passing — so the intra-event control flow (and with it the event
//! order, the RNG draw order, and every golden trace) is statement-for-
//! statement identical to the monolithic engine this module used to be.
//!
//! The simulated model is unchanged: the saturated uplink of the paper's
//! Section II by default (every station always has a frame for the AP, a
//! frame is received iff no other transmission overlaps it and the AP is not
//! transmitting, every received frame is ACKed after SIFS with the
//! controller's control variable piggy-backed), optionally relaxed by a
//! [`TrafficSpec`](crate::traffic::TrafficSpec) to per-station arrival
//! processes feeding bounded FIFO queues.
//!
//! ## Hot path
//!
//! Six structural choices keep the per-event cost low (see the "Hot path"
//! section of `docs/ARCHITECTURE.md`):
//!
//! * **Sensing by the sensing graph** — the build picks one of two paths
//!   from the topology, and both keep every station's busy count in the
//!   same bit-sliced counters ([`busy`]). With any hidden pair, a
//!   transmission start or end adds or subtracts the transmitter's
//!   sensing row ([`Topology::sensing_row`]), an ACK the active set minus
//!   its addressee: O(⌈N/64⌉ · log k) word operations for k transmissions
//!   on the air. Only the stations whose count crosses zero run the
//!   freeze or resume rules, in ascending id order. In a clique the
//!   medium view is kept once per cell and backoff countdowns are targets
//!   on a shared idle-slot epoch, so a transition costs O(k), plus one
//!   loop per resume for the policies that redraw or observe, which draws
//!   p-persistent uniforms and leaves their geometric draws lazy until
//!   read ([`clique`]). Both paths produce the identical event order and
//!   RNG draws.
//! * **Static dispatch** — stations own a [`Policy`] enum inline, so the
//!   per-station policy calls dispatch without vtables; the AP's controller
//!   is a `Box<dyn ApAlgorithm>`, called once per frame or beacon.
//! * **Transmission slab** — in-flight transmissions live in a generational
//!   free-list slab ([`wlan_des::Slab`]) and are reclaimed as soon as their
//!   lifecycle ends, so memory is O(concurrent transmissions), not O(run
//!   length).
//! * **Two-tier scheduler** — general events live in a binary heap,
//!   backoff and arrival timers in indexed timer tiers with O(1) arm and
//!   physical cancel; all tiers share one `(time, seq)` counter so pops
//!   follow the exact historical single-heap order
//!   ([`wlan_des::EventQueue`]). On both sensing paths the MAC keeps its
//!   backoff timers in its own table ([`timers`]) and arms only the
//!   earliest in the kernel, numbered from ranges reserved per walk.
//! * **Hot/cold station state** — the per-station fields the sensing
//!   rules read and write are packed into one 56-byte record per station
//!   ([`station::Stations`]), separate from the fat policy/RNG arrays and
//!   from the busy-count bit planes.

mod apctl;
mod arrivals;
mod busy;
mod channel;
mod clique;
mod event;
mod snapshot;
mod station;
mod telemetry;
#[cfg(test)]
mod tests;
mod timers;

pub use telemetry::{EngineMetrics, COMPONENT_NAMES, TIER_NAMES};

use crate::ap::{ApAlgorithm, NullController};
use crate::backoff::{BackoffPolicy, Policy};
use crate::capture::CaptureModel;
use crate::phy::PhyParams;
use crate::stats::{SimStats, ThroughputSample};
use crate::topology::{NodeId, Topology};
use crate::traffic::{ArrivalProcess, ArrivalSampler, TrafficSpec};
use apctl::ApControl;
use arrivals::{FiniteSource, StationTraffic, TrafficSources};
use channel::Channel;
use clique::Clique;
use event::Event;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use station::{StationMac, Stations};
use std::collections::VecDeque;
use timers::Timers;
use wlan_des::time::{SimDuration, SimTime};
use wlan_des::{ComponentId, Handle, Simulation, TierId};

/// The context type handed to the WLAN components (kernel context
/// specialised to the engine's event vocabulary).
pub(crate) type Ctx<'a> = wlan_des::SimulationContext<'a, Event>;

/// The peer-registry view handed to the WLAN components.
pub(crate) type EnginePeers<'a> = wlan_des::Peers<'a, World, Event>;

// Component registry layout. Registration order in `build()` must match
// these constants — `Handle::from_raw` wiring and event addressing rely on
// them.
pub(crate) const MAC_ID: ComponentId = 0;
pub(crate) const CHANNEL_ID: ComponentId = 1;
pub(crate) const AP_ID: ComponentId = 2;
pub(crate) const TRAFFIC_ID: ComponentId = 3;

/// Shared simulation state every component reads: the immutable scenario
/// (PHY timing, topology, capture model, error rate) and the cross-cutting
/// measurement state (statistics, throughput-series binning).
pub(crate) struct World {
    pub(crate) phy: PhyParams,
    pub(crate) topology: Topology,
    pub(crate) capture: Option<CaptureModel>,
    pub(crate) frame_error_rate: f64,
    /// Whether a successfully received frame's ACK can still fail to reach
    /// its sender. True only for capture models with `sir_threshold <= 1`,
    /// where two mutually overlapping frames can both decode and the second
    /// success overwrites the pending ACK of the first. Gates the
    /// success-path `AckTimeout` elision.
    pub(crate) ack_can_be_lost: bool,
    pub(crate) stats: SimStats,
    pub(crate) measure_start: SimTime,
    pub(crate) throughput_bin: SimDuration,
    pub(crate) bin_start: SimTime,
    pub(crate) bin_bits: u64,
    /// Throughput-series bound: at `series_cap` samples the series is merged
    /// pairwise and `series_stride` doubles (samples then aggregate that many
    /// ticks), keeping the series O(cap) over arbitrarily long runs.
    pub(crate) series_cap: usize,
    pub(crate) series_stride: u32,
    pub(crate) stride_ticks: u32,
}

// The scenario half (PHY, topology, capture, bin width, series cap) is
// rebuilt from the scenario; the measurement half is checkpointed.
wlan_des::state!(struct World {
    stats, measure_start, bin_start, bin_bits, series_stride, stride_ticks
});

/// Builder for [`Simulator`].
///
/// ```
/// use wlan_sim::{SimulatorBuilder, PhyParams, Topology};
/// use wlan_sim::backoff::PPersistent;
///
/// let phy = PhyParams::table1();
/// let topo = Topology::fully_connected(10);
/// let mut sim = SimulatorBuilder::new(phy, topo)
///     .seed(7)
///     .with_stations(|_, phy| PPersistent::new(2.0 / (10.0 * phy.tc_star().sqrt())))
///     .build();
/// sim.run_for(wlan_sim::SimDuration::from_millis(200));
/// assert!(sim.stats().system_throughput_mbps() > 1.0);
/// ```
pub struct SimulatorBuilder {
    phy: PhyParams,
    topology: Topology,
    seed: u64,
    weights: Vec<f64>,
    policies: Vec<Option<Policy>>,
    ap: Box<dyn ApAlgorithm>,
    throughput_bin: SimDuration,
    throughput_series_cap: usize,
    frame_error_rate: f64,
    initially_active: Option<usize>,
    capture: Option<CaptureModel>,
    traffic: TrafficSpec,
    arrival_overrides: Vec<Option<ArrivalProcess>>,
    /// Test hook: build the per-station sensing path even for a clique, so
    /// the two paths can be compared on the same scenario.
    #[cfg(test)]
    per_station: bool,
}

impl SimulatorBuilder {
    /// Start building a simulator for the given PHY parameters and topology.
    pub fn new(phy: PhyParams, topology: Topology) -> Self {
        let n = topology.num_nodes();
        SimulatorBuilder {
            phy,
            topology,
            seed: 0,
            weights: vec![1.0; n],
            policies: (0..n).map(|_| None).collect(),
            ap: Box::new(NullController::new()),
            throughput_bin: SimDuration::from_secs(1),
            throughput_series_cap: 4096,
            frame_error_rate: 0.0,
            initially_active: None,
            capture: None,
            traffic: TrafficSpec::default(),
            arrival_overrides: (0..n).map(|_| None).collect(),
            #[cfg(test)]
            per_station: false,
        }
    }

    /// Force the per-station sensing path (tests compare it with the clique
    /// path on the same scenario).
    #[cfg(test)]
    pub(crate) fn per_station_sensing(mut self) -> Self {
        self.per_station = true;
        self
    }

    /// Master RNG seed; every station derives an independent stream from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Install the same policy constructor on every station. The factory may
    /// return any concrete policy convertible into [`Policy`].
    pub fn with_stations<F, P>(mut self, mut factory: F) -> Self
    where
        F: FnMut(NodeId, &PhyParams) -> P,
        P: Into<Policy>,
    {
        for i in 0..self.policies.len() {
            self.policies[i] = Some(factory(i, &self.phy).into());
        }
        self
    }

    /// Install a policy on a single station.
    pub fn with_station_policy(mut self, node: NodeId, policy: impl Into<Policy>) -> Self {
        self.policies[node] = Some(policy.into());
        self
    }

    /// Set per-station weights (used for weighted-fairness reporting).
    pub fn weights(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), self.topology.num_nodes());
        assert!(weights.iter().all(|w| *w > 0.0), "weights must be positive");
        self.weights = weights;
        self
    }

    /// Install the AP-side controller (the default is a [`NullController`]).
    pub fn ap_algorithm(mut self, ap: Box<dyn ApAlgorithm>) -> Self {
        self.ap = ap;
        self
    }

    /// Width of the throughput time-series bins (default 1 s).
    pub fn throughput_bin(mut self, bin: SimDuration) -> Self {
        assert!(!bin.is_zero());
        self.throughput_bin = bin;
        self
    }

    /// Upper bound on the number of stored throughput-series samples
    /// (default 4096). When the series reaches the cap, adjacent samples are
    /// merged pairwise and subsequent samples aggregate twice as many ticks,
    /// so the series memory stays O(cap) over arbitrarily long runs while
    /// the `StatsTick` cadence — and therefore every controller beacon and
    /// every event timestamp — is completely unaffected.
    pub fn throughput_series_cap(mut self, cap: usize) -> Self {
        assert!(
            cap >= 2 && cap.is_multiple_of(2),
            "series cap must be even and >= 2"
        );
        self.throughput_series_cap = cap;
        self
    }

    /// Independent and identically distributed frame-error probability applied to
    /// otherwise-successful receptions (default 0; the paper's footnote-1 extension).
    pub fn frame_error_rate(mut self, fer: f64) -> Self {
        assert!((0.0..=1.0).contains(&fer));
        self.frame_error_rate = fer;
        self
    }

    /// Enable physical-layer capture at the AP (SIR-threshold reception). With
    /// `None` (the default) every overlap destroys all frames involved, exactly as
    /// in the paper's analytical model.
    pub fn capture_model(mut self, capture: Option<CaptureModel>) -> Self {
        self.capture = capture;
        self
    }

    /// Only the first `n` stations start active; the rest can be activated later
    /// (dynamic-membership scenarios, Figs. 8–11).
    pub fn initially_active(mut self, n: usize) -> Self {
        assert!(n <= self.topology.num_nodes());
        self.initially_active = Some(n);
        self
    }

    /// Install a traffic specification (arrival process + queue bound) on
    /// every station. The default is [`TrafficSpec::saturated`] — the
    /// paper's model, with no traffic layer at all; a saturated build is
    /// RNG-stream and event-order identical to the pre-traffic engine.
    /// Per-station deviations go through
    /// [`station_arrival`](Self::station_arrival).
    pub fn traffic(mut self, spec: TrafficSpec) -> Self {
        self.traffic = spec;
        self
    }

    /// Override the arrival process of a single station (the queue bound
    /// stays the shared [`TrafficSpec::queue_frames`]). Mixing saturated and
    /// finite-load stations is allowed: saturated stations keep the
    /// always-backlogged semantics while the others queue.
    pub fn station_arrival(mut self, node: NodeId, arrival: ArrivalProcess) -> Self {
        self.arrival_overrides[node] = Some(arrival);
        self
    }

    /// Construct the simulator. Panics if any station is missing a policy or the
    /// PHY parameters are inconsistent.
    pub fn build(self) -> Simulator {
        self.phy.validate().expect("invalid PHY parameters");
        // The TxEnd event elision in `Stations::busy_end` relies on the ACK
        // freeze at `now + SIFS` always preceding a resumed countdown's
        // earliest expiry at `now + DIFS + slot`. `validate()` guarantees
        // DIFS >= SIFS today; assert the linkage here so a future loosening
        // of `validate()` cannot silently turn elided timers into lost
        // transmissions.
        assert!(
            self.phy.sifs < self.phy.difs + self.phy.slot,
            "event elision requires SIFS < DIFS + slot"
        );
        self.traffic.validate().expect("invalid traffic spec");
        let arrivals: Vec<ArrivalProcess> = self
            .arrival_overrides
            .iter()
            .map(|o| o.unwrap_or(self.traffic.arrival))
            .collect();
        for a in &arrivals {
            a.validate().expect("invalid per-station arrival process");
        }
        let n = self.topology.num_nodes();
        let mut master = ChaCha8Rng::seed_from_u64(self.seed);
        let (mut policies, mut rngs) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (i, policy) in self.policies.into_iter().enumerate() {
            policies.push(policy.unwrap_or_else(|| panic!("station {i} has no backoff policy")));
            rngs.push(ChaCha8Rng::seed_from_u64(master.gen()));
        }
        let stations = Stations::new(policies, rngs, self.weights);
        let engine_rng = ChaCha8Rng::seed_from_u64(master.gen());
        // The sensing path is a property of the sensing graph: a clique
        // shares one medium view, anything else adds sensing rows.
        let is_clique = self.topology.is_fully_connected();
        #[cfg(test)]
        let is_clique = is_clique && !self.per_station;
        let clique = is_clique.then(|| Box::new(Clique::new(&stations)));
        // Traffic RNG streams are derived from the master strictly *after*
        // every pre-existing draw (station contention streams, engine
        // stream), and only when some station actually has a finite-load
        // source: a saturated build draws exactly the historical sequence,
        // so its RNG streams — and with them the golden traces — are
        // bit-identical to the pre-traffic engine.
        let traffic_stations: Vec<StationTraffic> =
            if arrivals.iter().all(ArrivalProcess::is_saturated) {
                Vec::new()
            } else {
                let cap = self.traffic.queue_frames.unwrap_or(usize::MAX);
                let mut traffic_master = ChaCha8Rng::seed_from_u64(master.gen());
                arrivals
                    .iter()
                    .map(|a| match ArrivalSampler::new(*a) {
                        None => StationTraffic::Saturated,
                        Some(sampler) => StationTraffic::Finite(Box::new(FiniteSource {
                            sampler,
                            rng: ChaCha8Rng::seed_from_u64(traffic_master.gen()),
                            queue: VecDeque::new(),
                            cap,
                            last_delay: None,
                        })),
                    })
                    .collect()
            };

        let world = World {
            phy: self.phy,
            topology: self.topology,
            frame_error_rate: self.frame_error_rate,
            // `<=` is load-bearing: `decodable` compares with `>=`, so at a
            // threshold of exactly 1.0 two equal-power overlapping frames
            // BOTH decode and the second success overwrites the first
            // sender's pending ACK — its timeout must stay scheduled.
            ack_can_be_lost: self
                .capture
                .as_ref()
                .is_some_and(|c| c.sir_threshold <= 1.0),
            capture: self.capture,
            stats: SimStats::new(n),
            measure_start: SimTime::ZERO,
            throughput_bin: self.throughput_bin,
            bin_start: SimTime::ZERO,
            bin_bits: 0,
            series_cap: self.throughput_series_cap,
            series_stride: 1,
            stride_ticks: 0,
        };

        // Assemble the kernel: register the timer tiers first (their index
        // order — backoff before arrivals — is the historical tie-break
        // preference order of the multi-tier queue), then the components in
        // the fixed *_ID registry order. Components are wired to each other
        // with `Handle::from_raw` because the registry is circular.
        let mut sim: Simulation<World, Event> = Simulation::new(world);
        let backoff_tier = sim.add_timer_tier(MAC_ID, n, event::make_tx_start);
        let arrival_tier = sim.add_timer_tier(TRAFFIC_ID, n, event::make_frame_arrival);
        let mac = sim.add_component(StationMac {
            stations,
            timers: Timers::new(n),
            tier: backoff_tier,
            clique,
            channel: Handle::from_raw(CHANNEL_ID),
            ap: Handle::from_raw(AP_ID),
            traffic: Handle::from_raw(TRAFFIC_ID),
        });
        debug_assert_eq!(mac.id(), MAC_ID);
        let channel = sim.add_component(Channel {
            txs: wlan_des::Slab::new(),
            active_tx: Vec::new(),
            acks: Vec::new(),
            mac,
            ap: Handle::from_raw(AP_ID),
            traffic: Handle::from_raw(TRAFFIC_ID),
        });
        debug_assert_eq!(channel.id(), CHANNEL_ID);
        let ap = sim.add_component(ApControl::new(self.ap, mac, Handle::from_raw(TRAFFIC_ID)));
        debug_assert_eq!(ap.id(), AP_ID);
        let traffic = sim.add_component(TrafficSources {
            stations: traffic_stations.into(),
            tier: arrival_tier,
            mac,
        });
        debug_assert_eq!(traffic.id(), TRAFFIC_ID);
        // The frame-error stream (historically `engine_rng`) belongs to the
        // channel component, the only drawer.
        sim.set_component_rng(CHANNEL_ID, engine_rng);

        let mut simulator = Simulator {
            sim,
            mac,
            channel,
            ap,
            traffic,
            arrival_tier,
        };
        let active = self.initially_active.unwrap_or(n);
        simulator.activate_stations(0..active);
        simulator.sim.access(|world, _, ctx| {
            ctx.schedule(
                SimTime::ZERO + world.throughput_bin,
                AP_ID,
                Event::StatsTick,
            );
        });
        simulator
    }
}

/// The discrete-event IEEE 802.11 DCF simulator: a facade over the
/// `wlan-des` kernel with the WLAN mechanics registered as components.
pub struct Simulator {
    sim: Simulation<World, Event>,
    mac: Handle<StationMac>,
    channel: Handle<Channel>,
    ap: Handle<ApControl>,
    traffic: Handle<TrafficSources>,
    arrival_tier: TierId,
}

impl Simulator {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The PHY parameters in use.
    pub fn phy(&self) -> &PhyParams {
        &self.sim.world().phy
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.sim.world().topology
    }

    /// Number of stations currently active.
    pub fn active_stations(&self) -> usize {
        self.sim.component(self.mac).stations.active_count()
    }

    /// Total number of events the engine has processed so far (all event
    /// kinds, including stale timers). This is the denominator-free measure of
    /// engine work the `bench_engine` harness reports as events/sec.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Largest number of transmissions ever simultaneously resident in the
    /// transmission slab. Bounded by the number of stations (each station has
    /// at most one outstanding transmission), regardless of run length — the
    /// memory-boundedness regression tests assert exactly that.
    pub fn tx_slab_high_water(&self) -> usize {
        self.sim.component(self.channel).txs.high_water()
    }

    /// Number of transmission-slab slots currently allocated (live + free).
    pub fn tx_slab_capacity(&self) -> usize {
        self.sim.component(self.channel).txs.capacity()
    }

    /// Number of data frames on the air right now.
    pub fn frames_on_air(&self) -> usize {
        self.sim.component(self.channel).active_tx.len()
    }

    /// Whether the AP's ACK is on the air right now.
    pub fn ack_on_air(&self) -> bool {
        !self.sim.component(self.channel).acks.is_empty()
    }

    /// Immutable access to the collected statistics.
    pub fn stats(&self) -> SimStats {
        let world = self.sim.world();
        let mut stats = world.stats.clone();
        stats.measured_time = self.sim.now().duration_since(world.measure_start);
        stats
    }

    /// The AP-side controller (for reading its trace after a run).
    pub fn ap_algorithm(&self) -> &dyn ApAlgorithm {
        &*self.sim.component(self.ap).controller
    }

    /// The attempt probability currently reported by a station's policy, if any.
    pub fn station_attempt_probability(&self, node: NodeId) -> Option<f64> {
        self.sim.component(self.mac).stations.policy[node].attempt_probability()
    }

    /// Per-station weights.
    pub fn weights(&self) -> Vec<f64> {
        self.sim.component(self.mac).stations.weight.clone()
    }

    /// Whether this simulator carries a finite-load traffic layer (at least
    /// one station has a non-saturated arrival process).
    pub fn has_finite_load(&self) -> bool {
        !self.sim.component(self.traffic).stations.is_empty()
    }

    /// Number of frames currently queued at `node`, including the
    /// head-of-line frame in service. Always 0 for saturated stations (they
    /// have no queue — the notional backlog is infinite).
    pub fn queued_frames(&self, node: NodeId) -> usize {
        let traffic = self.sim.component(self.traffic);
        if traffic.stations.is_empty() {
            0
        } else {
            traffic.stations[node].queue_len()
        }
    }

    /// Total frames queued across all stations (0 in saturated runs).
    pub fn total_queued_frames(&self) -> usize {
        self.sim
            .component(self.traffic)
            .stations
            .iter()
            .map(StationTraffic::queue_len)
            .sum()
    }

    /// Discard all measurements collected so far and start measuring from the
    /// current simulation time (used to skip a warm-up interval).
    pub fn reset_measurements(&mut self) {
        let n = self.sim.component(self.mac).stations.len();
        let now = self.sim.now();
        // Re-seed the queue bookkeeping from the live occupancy so the
        // conservation invariant (queued_at_start + arrivals == delivered +
        // drops + queued_now) holds exactly over the measured interval.
        let queue_lens: Vec<(usize, u64)> = self
            .sim
            .component(self.traffic)
            .stations
            .iter()
            .enumerate()
            .filter_map(|(i, st)| match st {
                StationTraffic::Finite(src) => Some((i, src.queue.len() as u64)),
                StationTraffic::Saturated => None,
            })
            .collect();
        let world = self.sim.world_mut();
        world.stats = SimStats::new(n);
        for (i, len) in queue_lens {
            let t = &mut world.stats.nodes[i].traffic;
            t.queued_at_start = len;
            t.queue_high_water = len;
        }
        world.measure_start = now;
        world.bin_start = now;
        world.bin_bits = 0;
        world.series_stride = 1;
        world.stride_ticks = 0;
    }

    /// Bring an inactive station into the network (it starts contending immediately).
    pub fn activate_station(&mut self, node: NodeId) {
        self.activate_stations(node..node + 1);
    }

    /// Activate `nodes` in order, as consecutive `activate_station` calls
    /// would, re-arming the kernel's backoff timer once at the end.
    fn activate_stations(&mut self, nodes: std::ops::Range<NodeId>) {
        let (mac_h, channel_h, traffic_h) = (self.mac, self.channel, self.traffic);
        self.sim.access(|world, peers, ctx| {
            let now = ctx.now();
            for node in nodes {
                let mac = peers.get_mut(mac_h);
                if mac.stations.is_active(node) {
                    continue;
                }
                mac.stations.activate(node, now);
                if let Some(clique) = mac.clique.as_deref_mut() {
                    clique.adopt(node);
                }
                // Recount what the station senses: the frames on the air
                // from stations in range, and the ACKs addressed to others.
                let sensed = {
                    let channel = peers.get(channel_h);
                    let frames = channel.active_tx.iter().filter(|&&id| {
                        let src = channel.txs.get(id).source;
                        src != node && world.topology.senses(node, src)
                    });
                    let acks = channel.acks.iter().filter(|&&src| src != node);
                    (frames.count() + acks.count()) as u32
                };
                peers.get_mut(mac_h).stations.sensed.set(node, sensed);
                // Start (or restart) the station's arrival process. Frames
                // queued while the station was inactive are preserved;
                // generation resumes from now.
                let has_frame = {
                    let traffic = peers.get_mut(traffic_h);
                    traffic.start_arrivals(ctx, now, node);
                    traffic.has_frame(node)
                };
                peers
                    .get_mut(mac_h)
                    .contend(&world.phy, ctx, node, has_frame);
            }
            peers.get_mut(mac_h).settle(&world.phy, ctx);
        });
    }

    /// Remove a station from the network. Any in-flight transmission it has is
    /// abandoned (no success or failure is recorded for it, even if the
    /// station is reactivated before the frame's lifecycle closes), its
    /// pending frame arrival is cancelled (an inactive station generates no
    /// traffic), and any queued frames stay queued until it is reactivated.
    pub fn deactivate_station(&mut self, node: NodeId) {
        let (mac_h, arrival_tier) = (self.mac, self.arrival_tier);
        self.sim.access(|world, peers, ctx| {
            let mac = peers.get_mut(mac_h);
            if !mac.stations.is_active(node) {
                return;
            }
            // Its fields stay as they are while inactive, so the clique path
            // writes them out first.
            mac.detach(&world.phy, node);
            mac.stations.deactivate(node);
            mac.timers.cancel(node);
            if let Some(clique) = mac.clique.as_deref_mut() {
                clique.forget(node);
            }
            ctx.cancel_timer(arrival_tier, node);
            mac.settle(&world.phy, ctx);
        });
    }

    /// Run the simulation until the given absolute time.
    pub fn run_until(&mut self, t_end: SimTime) {
        self.sim.run_until(t_end);
    }

    /// Run the simulation for the given additional duration.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// When the current measurement interval began (the simulation start, or
    /// the instant of the last [`reset_measurements`](Self::reset_measurements)).
    /// Lets a campaign resuming from a checkpoint decide whether the warm-up
    /// reset has already happened.
    pub fn measurement_started_at(&self) -> SimTime {
        self.sim.world().measure_start
    }
}

/// Halve a throughput series in place by merging adjacent samples: the merged
/// sample keeps the later timestamp and station count and averages the rates
/// (samples cover equal-length intervals, so the plain mean is the
/// time-weighted mean). A trailing unpaired sample is kept as-is.
pub(crate) fn decimate_series(series: &mut Vec<ThroughputSample>) {
    let mut merged = Vec::with_capacity(series.len() / 2 + 1);
    let mut chunks = series.chunks_exact(2);
    for pair in &mut chunks {
        merged.push(ThroughputSample {
            time: pair[1].time,
            bps: (pair[0].bps + pair[1].bps) / 2.0,
            active_nodes: pair[1].active_nodes,
        });
    }
    merged.extend_from_slice(chunks.remainder());
    *series = merged;
}
