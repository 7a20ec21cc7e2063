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
use super::station::{Phase, StationMac};
use super::{Ctx, EnginePeers, World, CHANNEL_ID, MAC_ID};
use crate::ap::ApAlgorithm;
use crate::backoff::BackoffPolicy;
use crate::capture::CaptureModel;
use crate::control::ControlPayload;
use crate::topology::NodeId;
use rand::{Rng, RngCore};
use wlan_des::snapshot::{SnapshotError, StateReader, StateWriter};
use wlan_des::time::SimTime;
use wlan_des::{Component, Handle, Slab, SlabSnapshot, SlotId, SlotSnapshot};

/// An in-flight data transmission (slab-resident from `TxStart` until the end
/// of its lifecycle: `TxEnd` when no ACK follows, `AckEnd` otherwise).
#[derive(Debug, Clone)]
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
}

impl Transmission {
    fn save(&self, writer: &mut StateWriter) {
        writer.put_usize(self.source);
        writer.put_time(self.start);
        writer.put_u64(self.payload_bits);
        writer.put_f64(self.rx_power);
        writer.put_f64(self.interference);
        writer.put_bool(self.collided);
    }

    fn load(reader: &mut StateReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Transmission {
            source: reader.get_usize()?,
            start: reader.get_time()?,
            payload_bits: reader.get_u64()?,
            rx_power: reader.get_f64()?,
            interference: reader.get_f64()?,
            collided: reader.get_bool()?,
        })
    }

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
    /// Whether the AP itself is transmitting (an ACK).
    pub(crate) ap_transmitting: bool,
    pub(crate) mac: Handle<StationMac>,
    pub(crate) ap: Handle<ApControl>,
    pub(crate) traffic: Handle<TrafficSources>,
}

impl Channel {
    /// Append all mutable channel state to a checkpoint: the complete
    /// transmission slab (every slot with its generation and the free-list
    /// links, so [`TxId`]s embedded in pending events stay valid), the
    /// active-transmission list and the AP-transmitting flag.
    pub(crate) fn save(&self, writer: &mut StateWriter) {
        let snap = self.txs.snapshot();
        writer.put_usize(snap.slots.len());
        for slot in &snap.slots {
            match slot {
                SlotSnapshot::Occupied { generation, value } => {
                    writer.put_u8(1);
                    writer.put_u32(*generation);
                    value.save(writer);
                }
                SlotSnapshot::Vacant {
                    generation,
                    next_free,
                } => {
                    writer.put_u8(0);
                    writer.put_u32(*generation);
                    writer.put_u32(*next_free);
                }
            }
        }
        writer.put_u32(snap.free_head);
        writer.put_usize(snap.len);
        writer.put_usize(snap.high_water);
        writer.put_usize(self.active_tx.len());
        for tx in &self.active_tx {
            writer.put_u32(tx.index());
            writer.put_u32(tx.generation());
        }
        writer.put_bool(self.ap_transmitting);
    }

    /// Restore state written by [`save`](Self::save).
    pub(crate) fn load(&mut self, reader: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let slot_count = reader.get_usize()?;
        let mut slots = Vec::with_capacity(slot_count);
        for _ in 0..slot_count {
            slots.push(match reader.get_u8()? {
                1 => SlotSnapshot::Occupied {
                    generation: reader.get_u32()?,
                    value: Transmission::load(reader)?,
                },
                0 => SlotSnapshot::Vacant {
                    generation: reader.get_u32()?,
                    next_free: reader.get_u32()?,
                },
                tag => {
                    return Err(SnapshotError::custom(format!(
                        "unknown slab slot tag {tag}"
                    )))
                }
            });
        }
        let snap = SlabSnapshot {
            slots,
            free_head: reader.get_u32()?,
            len: reader.get_usize()?,
            high_water: reader.get_usize()?,
        };
        self.txs = Slab::restore(snap);
        let active = reader.get_usize()?;
        self.active_tx.clear();
        for _ in 0..active {
            let index = reader.get_u32()?;
            let generation = reader.get_u32()?;
            self.active_tx.push(SlotId::from_parts(index, generation));
        }
        self.ap_transmitting = reader.get_bool()?;
        Ok(())
    }

    fn handle_tx_end(
        &mut self,
        world: &mut World,
        peers: &mut EnginePeers<'_>,
        ctx: &mut Ctx<'_>,
        tx: TxId,
    ) {
        let now = ctx.now();
        self.active_tx.retain(|&id| id != tx);
        let (source, decodable, payload_bits, started) = {
            let t = self.txs.get(tx);
            (
                t.source,
                t.decodable(world.capture.as_ref()),
                t.payload_bits,
                t.start,
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

            // The transmitter itself starts listening for the ACK.
            if mac.stations.is_active(source) {
                let timeout = world.phy.ack_timeout();
                let h = &mut mac.stations.hot[source];
                h.phase = Phase::AwaitingAck;
                if h.sensed_busy == 0 {
                    h.idle_since = now;
                }
                h.ack_gen += 1;
                let gen = h.ack_gen;
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
            });
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
        self.ap_transmitting = true;
        {
            let ap = peers.get_mut(self.ap);
            let payload = ap.controller.control_payload(now);
            if let Some(ack) = ap.pending_ack.as_mut() {
                ack.payload = payload;
            }
        }
        let end = now + world.phy.ack_airtime();
        ctx.schedule(end, CHANNEL_ID, Event::AckEnd { tx });

        // Every active station senses the AP.
        let tx_source = self.txs.get(tx).source;
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
        self.ap_transmitting = false;
        // The ACK closes this transmission's lifecycle: reclaim the slab entry.
        let ended = self.txs.remove(tx);
        let ack = peers.get_mut(self.ap).pending_ack.take();
        let (dest, payload) = match ack {
            Some(a) => (a.dest, a.payload),
            None => (ended.source, ControlPayload::None),
        };

        let delivered = {
            let mac = peers.get_mut(self.mac);
            mac.medium_idle(world, ctx, now, ended.source, false, false);

            // Every station overhears the control payload carried by the ACK
            // (`active` is exactly the active set, in ascending id order).
            if !payload.is_none() {
                for &node in &mac.active {
                    mac.stations.policy[node].on_control(&payload);
                }
            }

            // Deliver the ACK to its addressee.
            mac.detach(&world.phy, dest);
            if mac.stations.hot[dest].phase == Phase::AwaitingAck {
                let payload_bits = ended.payload_bits;
                world.stats.nodes[dest].successes += 1;
                world.stats.nodes[dest].payload_bits_delivered += payload_bits;
                world.bin_bits += payload_bits;
                let st = &mut mac.stations;
                st.hot[dest].ack_gen += 1; // cancel the pending timeout
                let rng: &mut dyn RngCore = &mut st.rng[dest];
                st.policy[dest].on_success(rng);
                let h = &mut st.hot[dest];
                if h.sensed_busy == 0 {
                    h.idle_since = now;
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
