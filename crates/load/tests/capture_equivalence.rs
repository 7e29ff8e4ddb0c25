//! Packet capture is a pure observer: a soak fork with capture on must
//! reach exactly the same flow outcomes and conntrack state as the default
//! capture-off fork, popping the same number of scheduler events — both
//! take the engine's fast path — and differing only in the capture log.

use std::time::Duration;

use tspu_load::gen::LoadProfile;
use tspu_load::soak::{build_lab, SoakConfig};

#[test]
fn capture_on_and_off_soaks_reach_identical_outcomes() {
    let lab = build_lab(SoakConfig {
        profile: LoadProfile {
            flows: 2_000,
            clients: 8,
            universe_domains: 5_000,
            span: Duration::from_secs(60),
            ..LoadProfile::default()
        },
        flow_capacity: 4_096,
        slice: Duration::from_millis(100),
    });

    let (mut off, off_stats) = lab.fork();
    let (mut on, on_stats) = lab.fork();
    on.set_capture(true);
    off.run_until_idle();
    on.run_until_idle();

    let off_stats = off_stats.lock().unwrap().clone();
    let on_stats = on_stats.lock().unwrap().clone();
    assert_eq!(off_stats.flows_completed, 2_000);
    assert_eq!(off_stats.oracle_mismatches, 0);
    assert_eq!(off_stats, on_stats, "capture changed flow outcomes");

    let off_ct = off.middlebox(lab.device()).conntrack();
    let on_ct = on.middlebox(lab.device()).conntrack();
    assert_eq!(off_ct.len(), on_ct.len());
    assert_eq!(off_ct.gc_probes(), on_ct.gc_probes());

    assert!(
        off.events_popped() == on.events_popped(),
        "capture-off popped {} events, capture-on {}",
        off.events_popped(),
        on.events_popped()
    );
    assert!(off.captures().is_empty());
    assert!(!on.captures().is_empty());
}
