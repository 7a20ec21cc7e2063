//! Structural regression test for the engine decomposition.
//!
//! The engine facade (`crates/sim/src/engine/mod.rs`) used to be a
//! 1,767-line monolith whose core was a single `match event` over every
//! MAC/channel/AP/traffic event. The events are now handled by four
//! components, and the facade's `Engine` model only routes each event to
//! the component it is addressed to. This test pins the shape so the
//! monolith cannot silently grow back: the facade must stay a facade
//! (bounded size, no event match of its own, routing through
//! `impl Model for Engine`), and each component file must keep handling
//! its events itself.

const ENGINE_MOD: &str = include_str!("../crates/sim/src/engine/mod.rs");

/// The facade may hold the builder, the model and its routing, and the
/// query surface — but not handler logic. Its size is pinned with headroom
/// over the current ~700 lines (docs included); the pre-refactor monolith
/// was 1,767 lines, so any re-absorption of a component trips this long
/// before it gets that far.
#[test]
fn engine_mod_stays_a_facade() {
    let lines = ENGINE_MOD.lines().count();
    assert!(
        lines < 750,
        "crates/sim/src/engine/mod.rs has grown to {lines} lines (budget 750); \
         move event-handling logic into a component instead of the facade"
    );
}

/// The facade must not contain an event match: the kernel hands each event
/// to `impl Model for Engine`, which routes it by component id to the
/// component's own `handle`, never through a central `match event`.
#[test]
fn engine_mod_has_no_event_match() {
    assert!(
        !ENGINE_MOD.contains("match event"),
        "engine/mod.rs contains a `match event` — the monolithic dispatch is growing back"
    );
    assert!(
        ENGINE_MOD.contains("impl Model for Engine"),
        "engine/mod.rs no longer routes events through the Engine model"
    );
}

/// Each mechanism named by the decomposition keeps its own component file
/// whose component defines its own `handle`, matching on the events
/// addressed to it (traffic arrivals and the AP controller included).
#[test]
fn mechanisms_are_components() {
    for (name, component, src) in [
        (
            "station.rs",
            "StationMac",
            include_str!("../crates/sim/src/engine/station.rs"),
        ),
        (
            "channel.rs",
            "Channel",
            include_str!("../crates/sim/src/engine/channel.rs"),
        ),
        (
            "apctl.rs",
            "ApControl",
            include_str!("../crates/sim/src/engine/apctl.rs"),
        ),
        (
            "arrivals.rs",
            "TrafficSources",
            include_str!("../crates/sim/src/engine/arrivals.rs"),
        ),
    ] {
        let body = src
            .split_once(&format!("\nimpl {component} {{\n"))
            .map(|(_, body)| body)
            .unwrap_or_else(|| panic!("engine/{name} no longer implements {component}"));
        assert!(
            body.contains("pub(crate) fn handle(") && body.contains("match event {"),
            "engine/{name}: {component} no longer handles its own events"
        );
    }
}
