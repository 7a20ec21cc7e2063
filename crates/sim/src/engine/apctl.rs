//! The AP/controller component: the access point's view of the medium (busy
//! periods, idle slots — the observables the paper's stochastic-approximation
//! controller consumes), the pending-ACK latch, and the periodic `StatsTick`
//! beacon.
//!
//! The AP senses every station by construction, so its busy/idle bookkeeping
//! is a simple nesting counter over `channel_busy_start`/`channel_busy_end`
//! calls made by the MAC and channel components: a *busy period* is a maximal
//! interval during which at least one transmission (data or ACK) is on the
//! air, and it is classified at its close as successful (the AP decoded at
//! least one frame) or collided (feeding [`ApAlgorithm::on_collision`]).

use super::arrivals::TrafficSources;
use super::event::Event;
use super::station::{StationMac, Stations};
use super::{decimate_series, Ctx, World, AP_ID};
use crate::ap::ApAlgorithm;
use crate::control::ControlPayload;
use crate::phy::PhyParams;
use crate::stats::{SimStats, ThroughputSample};
use crate::topology::{ones, NodeId};
use wlan_des::time::SimTime;

/// A pending ACK the AP is about to transmit / is transmitting.
#[derive(Debug, Clone, Default)]
pub(crate) struct PendingAck {
    pub(crate) dest: NodeId,
    pub(crate) payload: ControlPayload,
    /// The `ack_gen` the addressee awaits this ACK with (see
    /// `Transmission::ack_gen`).
    pub(crate) ack_gen: u64,
}

wlan_des::state!(struct PendingAck { dest, payload, ack_gen });

/// The AP/controller component. Owns the control algorithm and the channel
/// observables it consumes; receives only `StatsTick` (the beacon), but its
/// busy-period methods are called synchronously by the MAC and channel
/// components on every medium transition the AP perceives.
pub(crate) struct ApControl {
    /// The control algorithm running at the AP.
    pub(crate) controller: Box<dyn ApAlgorithm>,
    /// The ACK the AP has committed to transmit (set at TxEnd on success,
    /// consumed at AckEnd). With a sub-unity SIR capture threshold a second
    /// overlapping success can overwrite it — the displaced sender's ACK is
    /// simply never delivered, exactly like the real AP choosing one frame.
    pub(crate) pending_ack: Option<PendingAck>,
    /// Nesting depth of the AP-perceived busy period (number of overlapping
    /// transmissions the AP currently senses, ACKs included).
    busy_count: u32,
    /// When the AP's medium last became idle.
    idle_since: SimTime,
    /// When the current busy period began (valid while `busy_count > 0`).
    busy_start: SimTime,
    /// Whether the current busy period contains at least one data frame
    /// (pure-ACK periods are not counted as busy periods for the controller).
    busy_has_data: bool,
    /// Whether the AP decoded at least one frame in the current busy period.
    pub(crate) busy_has_success: bool,
}

wlan_des::state!(struct ApControl {
    controller, pending_ack, busy_count, idle_since, busy_start, busy_has_data, busy_has_success
});

impl ApControl {
    pub(crate) fn new(controller: Box<dyn ApAlgorithm>) -> Self {
        ApControl {
            controller,
            pending_ack: None,
            busy_count: 0,
            idle_since: SimTime::ZERO,
            busy_start: SimTime::ZERO,
            busy_has_data: false,
            busy_has_success: false,
        }
    }

    /// The AP's perceived medium goes busy (or busier): idle-slot accounting
    /// and busy-period classification. The AP senses everything, so this is
    /// called for every transmission start, data or ACK.
    pub(crate) fn channel_busy_start(
        &mut self,
        phy: &PhyParams,
        stats: &mut SimStats,
        now: SimTime,
        is_data: bool,
    ) {
        self.busy_count += 1;
        if self.busy_count > 1 {
            self.busy_has_data |= is_data;
            return;
        }
        self.busy_start = now;
        self.busy_has_data = is_data;
        self.busy_has_success = false;
        let idle_start = self.idle_since + phy.difs;
        if now > idle_start {
            stats.idle_slots += now.duration_since(idle_start).div_duration(phy.slot);
        }
    }

    /// The AP's perceived medium goes (one step less) busy; closing the
    /// outermost nesting level classifies the busy period.
    pub(crate) fn channel_busy_end(&mut self, stats: &mut SimStats, now: SimTime) {
        debug_assert!(self.busy_count > 0);
        self.busy_count -= 1;
        if self.busy_count > 0 {
            return;
        }
        self.idle_since = now;
        stats.busy_time += now.duration_since(self.busy_start);
        if self.busy_has_data {
            stats.busy_periods += 1;
            if self.busy_has_success {
                stats.successful_busy_periods += 1;
            } else {
                stats.collided_busy_periods += 1;
                self.controller.on_collision(now);
            }
        }
        self.busy_has_data = false;
        self.busy_has_success = false;
    }

    /// Handle an event addressed to the AP.
    pub(crate) fn handle(
        &mut self,
        world: &mut World,
        mac: &mut StationMac,
        traffic: &TrafficSources,
        ctx: &mut Ctx<'_>,
        event: Event,
    ) {
        match event {
            Event::StatsTick => self.handle_stats_tick(world, mac, traffic, ctx),
            other => unreachable!("AP controller received {other:?}"),
        }
    }

    fn handle_stats_tick(
        &mut self,
        world: &mut World,
        mac: &mut StationMac,
        traffic: &TrafficSources,
        ctx: &mut Ctx<'_>,
    ) {
        let now = ctx.now();
        // One sample per `series_stride` ticks; the tick cadence itself (and
        // with it the beacon schedule and every event timestamp) never
        // changes, so the series cap is invisible to the event stream.
        world.stride_ticks += 1;
        if world.stride_ticks >= world.series_stride {
            world.stride_ticks = 0;
            let elapsed = now.duration_since(world.bin_start);
            if !elapsed.is_zero() {
                let bps = world.bin_bits as f64 / elapsed.as_secs_f64();
                // Active *and backlogged* stations. Saturated runs take the
                // historical fast path: every active station is permanently
                // backlogged, so the count is just the size of the active set.
                let active_nodes = if traffic.stations.is_empty() {
                    mac.stations.active_count()
                } else {
                    ones(&mac.stations.active)
                        .filter(|&node| traffic.stations[node].has_frame())
                        .count()
                };
                world.stats.throughput_series.push(ThroughputSample {
                    time: now,
                    bps,
                    active_nodes,
                });
                if world.stats.throughput_series.len() >= world.series_cap {
                    decimate_series(&mut world.stats.throughput_series);
                    world.series_stride *= 2;
                }
            }
            world.bin_start = now;
            world.bin_bits = 0;
        }

        // Beacon: give the controller a chance to act even in an ACK-less lull and
        // broadcast its current control variable to every station (the paper's
        // beacon-frame variant; beacon airtime is neglected).
        self.controller.on_beacon(now);
        let payload = self.controller.control_payload(now);
        if !payload.is_none() {
            let Stations { active, policy, .. } = &mut mac.stations;
            for node in ones(active) {
                policy[node].on_control(&payload);
            }
        }

        ctx.schedule(now + world.throughput_bin, AP_ID, Event::StatsTick);
    }
}
