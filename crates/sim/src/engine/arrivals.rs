//! The traffic-arrival component: per-station finite-load sources (arrival
//! sampler, dedicated traffic RNG stream, bounded FIFO frame queue) and the
//! `FrameArrival` event they generate.
//!
//! Arrival timers live in this component's indexed timer tier — at most one
//! pending arrival per station, physically cancelled on deactivation. In
//! saturated runs the component holds an empty station vector, its tier stays
//! empty, and nothing here ever executes: the saturated hot path pays
//! nothing for the traffic subsystem's existence.

use super::event::Event;
use super::station::{Phase, StationMac};
use super::{Ctx, EnginePeers, World};
use crate::stats::SimStats;
use crate::topology::NodeId;
use crate::traffic::ArrivalSampler;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use wlan_des::snapshot::{SnapshotError, State, StateReader, StateWriter};
use wlan_des::time::{SimDuration, SimTime};
use wlan_des::{Component, Handle, TierId};

/// Runtime traffic state of one finite-load station: its arrival sampler,
/// the dedicated traffic RNG stream, and the bounded FIFO frame queue.
#[derive(Debug)]
pub(crate) struct FiniteSource {
    pub(crate) sampler: ArrivalSampler,
    /// Traffic randomness only — never shared with the station's contention
    /// stream (the RNG-stream-stability rule).
    pub(crate) rng: ChaCha8Rng,
    /// Arrival timestamps of queued frames; the head is the frame in
    /// service, which stays queued until its ACK is delivered.
    pub(crate) queue: VecDeque<SimTime>,
    /// Queue capacity in frames (`usize::MAX` when unbounded).
    pub(crate) cap: usize,
    /// Delay of this station's previous delivery (jitter accumulator input).
    pub(crate) last_delay: Option<SimDuration>,
}

wlan_des::state!(struct FiniteSource { sampler, rng, queue, last_delay });

/// Per-station traffic state: the saturated degenerate case carries nothing.
#[derive(Debug)]
pub(crate) enum StationTraffic {
    /// Always backlogged — the paper's model, no queue and no arrivals.
    Saturated,
    /// Finite-load source feeding a bounded FIFO queue (boxed: the sampler +
    /// RNG + queue block is ~half a KB, and mixed cells may be mostly
    /// saturated).
    Finite(Box<FiniteSource>),
}

/// Which stations have a finite source is fixed by the scenario: the
/// checkpoint writes it only to reject a snapshot of different traffic.
impl State for StationTraffic {
    fn save(&self, w: &mut StateWriter) {
        match self {
            StationTraffic::Saturated => false.save(w),
            StationTraffic::Finite(src) => {
                true.save(w);
                src.save(w);
            }
        }
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        match (r.read::<bool>()?, self) {
            (false, StationTraffic::Saturated) => Ok(()),
            (true, StationTraffic::Finite(src)) => src.load(r),
            _ => Err(SnapshotError::custom(
                "checkpoint traffic source does not match the scenario",
            )),
        }
    }
}

impl StationTraffic {
    /// Whether the station currently has a frame to send.
    pub(crate) fn has_frame(&self) -> bool {
        match self {
            StationTraffic::Saturated => true,
            StationTraffic::Finite(src) => !src.queue.is_empty(),
        }
    }

    /// Current queue length (0 for saturated stations).
    pub(crate) fn queue_len(&self) -> usize {
        match self {
            StationTraffic::Saturated => 0,
            StationTraffic::Finite(src) => src.queue.len(),
        }
    }
}

/// The traffic component. An **empty** `stations` vector means "no traffic
/// layer at all" — every station saturated, the paper's model — and every
/// query takes that degenerate fast path.
pub(crate) struct TrafficSources {
    pub(crate) stations: Box<[StationTraffic]>,
    /// The arrival timer tier this component owns.
    pub(crate) tier: TierId,
    pub(crate) mac: Handle<StationMac>,
}

wlan_des::state!(struct TrafficSources { stations });

impl TrafficSources {
    /// Whether `node` currently has a frame to send. Saturated stations (and
    /// every station of a simulator without a traffic layer) always do.
    pub(crate) fn has_frame(&self, node: NodeId) -> bool {
        if self.stations.is_empty() {
            return true;
        }
        self.stations[node].has_frame()
    }

    /// Draw `node`'s next inter-arrival delay and arm its arrival timer
    /// (no-op for saturated stations). Called on activation; arrivals then
    /// self-perpetuate through `handle_frame_arrival`.
    pub(crate) fn start_arrivals(&mut self, ctx: &mut Ctx<'_>, now: SimTime, node: NodeId) {
        if let Some(StationTraffic::Finite(src)) = self.stations.get_mut(node) {
            let delay = src.sampler.next_delay(&mut src.rng);
            ctx.arm_timer(self.tier, node, 0, now + delay);
        }
    }

    /// A frame addressed from `node` was delivered (its ACK arrived): pop it
    /// from the queue, record its delay, and report whether the station still
    /// has a frame to send.
    pub(crate) fn on_delivery(&mut self, stats: &mut SimStats, now: SimTime, node: NodeId) -> bool {
        if self.stations.is_empty() {
            return true;
        }
        match &mut self.stations[node] {
            StationTraffic::Saturated => true,
            StationTraffic::Finite(src) => {
                // The delivered frame leaves the queue here (the head stays
                // queued across retries), closing its delay clock —
                // queueing + access + transmission + ACK.
                let arrived = src
                    .queue
                    .pop_front()
                    .expect("delivered frame must be queued");
                let delay = now.duration_since(arrived);
                stats.nodes[node]
                    .traffic
                    .record_delivery(delay, src.last_delay);
                src.last_delay = Some(delay);
                !src.queue.is_empty()
            }
        }
    }

    /// A station's arrival process generated a frame: enqueue it (or drop it
    /// at a full queue), schedule the next arrival, and wake the station if
    /// it was parked in `QueueEmpty`.
    fn handle_frame_arrival(
        &mut self,
        world: &mut World,
        peers: &mut EnginePeers<'_>,
        ctx: &mut Ctx<'_>,
        node: NodeId,
    ) {
        let now = ctx.now();
        let mut enqueued = false;
        {
            let Some(StationTraffic::Finite(src)) = self.stations.get_mut(node) else {
                return;
            };
            // Schedule the next arrival first: the arrival stream is a
            // property of the source alone, independent of queue state.
            let delay = src.sampler.next_delay(&mut src.rng);
            ctx.arm_timer(self.tier, node, 0, now + delay);
            let ts = &mut world.stats.nodes[node].traffic;
            ts.arrivals += 1;
            if src.queue.len() >= src.cap {
                ts.drops += 1; // tail drop
            } else {
                src.queue.push_back(now);
                if src.queue.len() as u64 > ts.queue_high_water {
                    ts.queue_high_water = src.queue.len() as u64;
                }
                enqueued = true;
            }
        }
        if enqueued {
            let mac = peers.get_mut(self.mac);
            if mac.stations.hot[node].phase == Phase::QueueEmpty {
                mac.begin_contention(&world.phy, ctx, node, true);
            }
        }
    }
}

impl Component<World, Event> for TrafficSources {
    fn handle(
        &mut self,
        world: &mut World,
        peers: &mut EnginePeers<'_>,
        ctx: &mut Ctx<'_>,
        event: Event,
    ) {
        match event {
            Event::FrameArrival { station } => {
                self.handle_frame_arrival(world, peers, ctx, station)
            }
            other => unreachable!("traffic component received {other:?}"),
        }
    }
}
