//! The PHY/channel component: the set of in-flight transmissions, the
//! interference bookkeeping that decides decodability, and the three
//! transmission-lifecycle events (`TxEnd`, `AckStart`, `AckEnd`).
//!
//! In-flight transmissions live in a generational slab ([`wlan_des::Slab`]):
//! entries are reclaimed eagerly at the end of each lifecycle and the
//! generation check makes any stale [`TxId`] a loud panic instead of silent
//! aliasing. This component also owns the engine's private RNG stream
//! (registered via `Simulation::set_component_rng`), used only for the
//! uniform frame-error draw — stations never share it, so error injection
//! cannot perturb any station's contention stream.

use super::apctl::{ApControl, PendingAck};
use super::arrivals::TrafficSources;
use super::event::{Event, TxId};
use super::station::{Phase, StationMac, Stations};
use super::{Ctx, EnginePeers, World, CHANNEL_ID, MAC_ID};
use crate::backoff::BackoffPolicy;
use crate::capture::CaptureModel;
use crate::control::ControlPayload;
use crate::topology::{ones, NodeId};
use rand::{Rng, RngCore};
use wlan_des::time::SimTime;
use wlan_des::{Component, Handle, Slab};

/// An in-flight data transmission (slab-resident from `TxStart` until the end
/// of its lifecycle: `TxEnd` when no ACK follows, `AckEnd` otherwise).
#[derive(Debug, Clone, Default)]
pub(crate) struct Transmission {
    pub(crate) source: NodeId,
    /// When the transmission started (feeds per-station airtime accounting).
    pub(crate) start: SimTime,
    pub(crate) payload_bits: u64,
    /// Received power at the AP (1.0 when no capture model is configured).
    pub(crate) rx_power: f64,
    /// Total received power of every other transmission that overlapped this one.
    pub(crate) interference: f64,
    /// Hard loss: the AP was transmitting (an ACK) during part of this frame, so it
    /// cannot be decoded regardless of signal strength.
    pub(crate) collided: bool,
    /// The source's `ack_gen` when the frame started, advanced with it when
    /// the frame ends and the source awaits the ACK. A deactivation bumps
    /// `ack_gen`, so a mismatch marks a frame its source abandoned: the
    /// frame's lifecycle events then leave the station alone, even if it
    /// was reactivated meanwhile and is contending again.
    pub(crate) ack_gen: u64,
}

wlan_des::state!(struct Transmission {
    source, start, payload_bits, rx_power, interference, collided, ack_gen
});

impl Transmission {
    fn decodable(&self, capture: Option<&CaptureModel>) -> bool {
        if self.collided {
            return false;
        }
        match capture {
            Some(c) => c.decodable(self.rx_power, self.interference),
            None => self.interference <= 0.0,
        }
    }
}

/// The channel component: in-flight transmission state shared by the MAC
/// (which starts transmissions into it) and the AP (which decodes out of it).
pub(crate) struct Channel {
    /// All in-flight transmissions, generationally indexed.
    pub(crate) txs: Slab<Transmission>,
    /// Slab ids of transmissions currently on the air (small — bounded by the
    /// number of simultaneously transmitting stations).
    pub(crate) active_tx: Vec<TxId>,
    /// The source of the data frame each ACK on the air answers: every
    /// active station but that source senses the ACK. Empty while the AP is
    /// silent and one entry while it ACKs, except when a capture model
    /// decodes two frames that end at the same instant and both are ACKed
    /// at once.
    pub(crate) acks: Vec<NodeId>,
    pub(crate) mac: Handle<StationMac>,
    pub(crate) ap: Handle<ApControl>,
    pub(crate) traffic: Handle<TrafficSources>,
}

// The whole slab (every slot with its generation and the free-list links)
// is checkpointed, so the `TxId`s embedded in pending events stay valid.
wlan_des::state!(struct Channel { txs, active_tx, acks });

impl Channel {
    fn handle_tx_end(
        &mut self,
        world: &mut World,
        peers: &mut EnginePeers<'_>,
        ctx: &mut Ctx<'_>,
        tx: TxId,
    ) {
        let now = ctx.now();
        self.active_tx.retain(|&id| id != tx);
        let (source, decodable, payload_bits, started, mut ack_gen) = {
            let t = self.txs.get(tx);
            (
                t.source,
                t.decodable(world.capture.as_ref()),
                t.payload_bits,
                t.start,
                t.ack_gen,
            )
        };
        world.stats.nodes[source].airtime += now.duration_since(started);

        // Decide reception before notifying sensors so the sensing loop knows
        // whether an AckStart will follow at now + SIFS. (The frame-error draw
        // comes from this component's own RNG stream, which no station shares,
        // so drawing it before the stations' redraws does not perturb any
        // station stream.)
        let mut reception_failed = !decodable;
        if !reception_failed && world.frame_error_rate > 0.0 {
            reception_failed = ctx.rng().gen::<f64>() < world.frame_error_rate;
        }
        let ack_follows = !reception_failed;

        // Sensing stations see the medium go (possibly) idle again. When an ACK
        // follows, the AP is guaranteed to re-freeze every one of them at
        // now + SIFS — strictly before any countdown expiring at or after
        // now + DIFS — so their TxStart events would be invalidated unread;
        // `Stations::busy_end` elides those arms entirely (see its doc comment).
        {
            let mac = peers.get_mut(self.mac);
            mac.medium_idle(world, ctx, now, source, true, ack_follows);

            // The transmitter itself starts listening for the ACK, unless it
            // abandoned the frame.
            if mac.stations.hot[source].ack_gen == ack_gen {
                let timeout = world.phy.ack_timeout();
                let idle = !mac.stations.sensed.is_busy(source);
                let h = &mut mac.stations.hot[source];
                h.phase = Phase::AwaitingAck;
                if idle {
                    h.idle_since = now;
                }
                h.ack_gen += 1;
                let gen = h.ack_gen;
                ack_gen = gen;
                // On the success path the timeout (usually) could never take
                // effect: the AckEnd (at now + SIFS + ACK airtime) either
                // delivers the ACK and bumps `ack_gen`, or the station left
                // `AwaitingAck` through deactivation — both of which already make
                // the timeout a stale no-op before its fire time. Only schedule
                // it when it can fire. The exception is a capture model with a
                // sub-unity SIR threshold (`ack_can_be_lost`): there two
                // overlapping frames can *both* decode, the second success
                // overwrites `pending_ack`, and the first sender's ACK is never
                // delivered — its timeout must stay scheduled or the station
                // would be stranded in `AwaitingAck` forever.
                if reception_failed || world.ack_can_be_lost {
                    ctx.schedule(
                        now + timeout,
                        MAC_ID,
                        Event::AckTimeout {
                            station: source,
                            gen,
                        },
                    );
                }
            }
            mac.settle(&world.phy, ctx);
        }

        let ap = peers.get_mut(self.ap);
        if !reception_failed {
            // The AP decoded the frame; ACK after SIFS. The slab entry stays
            // alive until AckEnd closes the lifecycle.
            ap.busy_has_success = true;
            ap.controller.on_success(now, source, payload_bits);
            ap.pending_ack = Some(PendingAck {
                dest: source,
                payload: ControlPayload::None,
                ack_gen,
            });
            self.txs.get_mut(tx).ack_gen = ack_gen;
            ctx.schedule(now + world.phy.sifs, CHANNEL_ID, Event::AckStart { tx });
        } else {
            // No ACK will reference this transmission again: reclaim it now.
            self.txs.remove(tx);
        }

        ap.channel_busy_end(&mut world.stats, now);
    }

    fn handle_ack_start(
        &mut self,
        world: &mut World,
        peers: &mut EnginePeers<'_>,
        ctx: &mut Ctx<'_>,
        tx: TxId,
    ) {
        let now = ctx.now();
        // The AP cannot receive while transmitting: any frame in flight is lost.
        for &id in &self.active_tx {
            self.txs.get_mut(id).collided = true;
        }
        let tx_source = self.txs.get(tx).source;
        self.acks.push(tx_source);
        {
            let ap = peers.get_mut(self.ap);
            let payload = ap.controller.control_payload(now);
            if let Some(ack) = ap.pending_ack.as_mut() {
                ack.payload = payload;
            }
        }
        let end = now + world.phy.ack_airtime();
        ctx.schedule(end, CHANNEL_ID, Event::AckEnd { tx });

        // Every active station but the addressee senses the AP.
        peers
            .get_mut(self.mac)
            .medium_busy(world, ctx, now, tx_source, false);
        peers
            .get_mut(self.ap)
            .channel_busy_start(&world.phy, &mut world.stats, now, false);
    }

    fn handle_ack_end(
        &mut self,
        world: &mut World,
        peers: &mut EnginePeers<'_>,
        ctx: &mut Ctx<'_>,
        tx: TxId,
    ) {
        let now = ctx.now();
        // The ACK closes this transmission's lifecycle: reclaim the slab entry.
        let ended = self.txs.remove(tx);
        if let Some(i) = self.acks.iter().position(|&s| s == ended.source) {
            self.acks.swap_remove(i);
        }
        let ack = peers.get_mut(self.ap).pending_ack.take();
        let (dest, payload, ack_gen) = match ack {
            Some(a) => (a.dest, a.payload, a.ack_gen),
            None => (ended.source, ControlPayload::None, ended.ack_gen),
        };

        let delivered = {
            let mac = peers.get_mut(self.mac);
            mac.medium_idle(world, ctx, now, ended.source, false, false);

            // Every station overhears the control payload carried by the ACK,
            // in ascending id order.
            if !payload.is_none() {
                let Stations { active, policy, .. } = &mut mac.stations;
                for node in ones(active) {
                    policy[node].on_control(&payload);
                }
            }

            // Deliver the ACK to its addressee, if it still awaits this one.
            mac.detach(&world.phy, dest);
            let h = &mac.stations.hot[dest];
            if h.phase == Phase::AwaitingAck && h.ack_gen == ack_gen {
                let payload_bits = ended.payload_bits;
                world.stats.nodes[dest].successes += 1;
                world.stats.nodes[dest].payload_bits_delivered += payload_bits;
                world.bin_bits += payload_bits;
                let st = &mut mac.stations;
                st.hot[dest].ack_gen += 1; // cancel the pending timeout
                let rng: &mut dyn RngCore = &mut st.rng[dest];
                st.policy[dest].on_success(rng);
                if !st.sensed.is_busy(dest) {
                    st.hot[dest].idle_since = now;
                }
                true
            } else {
                false
            }
        };
        if delivered {
            // Finite load: the delivered frame leaves the queue here (the
            // head stays queued across retries), closing its delay clock —
            // queueing + access + transmission + ACK.
            let has_frame = peers
                .get_mut(self.traffic)
                .on_delivery(&mut world.stats, now, dest);
            peers
                .get_mut(self.mac)
                .begin_contention(&world.phy, ctx, dest, has_frame);
        }
        peers.get_mut(self.mac).settle(&world.phy, ctx);

        peers
            .get_mut(self.ap)
            .channel_busy_end(&mut world.stats, now);
    }
}

impl Component<World, Event> for Channel {
    fn handle(
        &mut self,
        world: &mut World,
        peers: &mut EnginePeers<'_>,
        ctx: &mut Ctx<'_>,
        event: Event,
    ) {
        match event {
            Event::TxEnd { tx } => self.handle_tx_end(world, peers, ctx, tx),
            Event::AckStart { tx } => self.handle_ack_start(world, peers, ctx, tx),
            Event::AckEnd { tx } => self.handle_ack_end(world, peers, ctx, tx),
            other => unreachable!("channel received {other:?}"),
        }
    }
}
