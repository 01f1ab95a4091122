//! Property-based tests for the synthetic world: determinism, permutation
//! bijectivity, and behavioural invariants over arbitrary parameters.

use proptest::prelude::*;
use sleepwatch_simnet::{
    AddrKey, AddressBehavior, BlockProfile, BlockSpec, LeaseParams, A12W_START,
};

fn arb_profile() -> impl Strategy<Value = BlockProfile> {
    (
        0u16..=128,     // n_stable
        0u16..=128,     // n_diurnal
        0.05f64..=1.0,  // stable_avail
        0.05f64..=1.0,  // diurnal_avail
        0.0f64..24.0,   // onset
        0.0f64..12.0,   // onset_spread
        1.0f64..16.0,   // duration
        0.0f64..4.0,    // sigma_start
        -12.0f64..12.0, // utc offset
    )
        .prop_map(|(ns, nd, sa, da, onset, spread, dur, ss, tz)| BlockProfile {
            n_stable: ns,
            n_diurnal: nd,
            stable_avail: sa,
            diurnal_avail: da,
            onset_hours: onset,
            onset_spread: spread,
            duration_hours: dur,
            duration_spread: 1.0,
            sigma_start: ss,
            sigma_duration: 0.5,
            utc_offset_hours: tz,
        })
}

/// `zero` about a third of the time, otherwise a draw from `range`.
fn zero_or(zero: f64, range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    (0u8..3, range).prop_map(move |(pick, x)| if pick == 0 { zero } else { x })
}

/// A block exercising every input the probe path reads: noisy and
/// noise-free day windows, both signs of UTC offset, lease sweeps, an
/// outage, weekend modulation and drift. Times passed to it are offsets
/// from the returned base time.
fn arb_probed_block() -> impl Strategy<Value = (BlockSpec, u64)> {
    (
        (0u16..=64, 1u16..=128, 0.05f64..=1.0, 0.05f64..=1.0, 0.0f64..24.0, 0.0f64..12.0),
        (1.0f64..16.0, zero_or(0.0, 0.01..4.0), zero_or(0.0, 0.01..4.0), -12.0f64..14.0),
        (0u64..1000, prop::option::of((1.0f64..48.0, 0.1f64..=1.0)), 0u8..=255, 0u8..=127),
        (
            prop::option::of((0u64..(6 * 86_400), 0u64..(2 * 86_400))),
            zero_or(1.0, 0.2..1.5),
            zero_or(0.0, -20.0..20.0),
            any::<bool>().prop_map(|paper| if paper { A12W_START } else { 0 }),
        ),
    )
        .prop_map(
            |(
                (ns, nd, sa, da, onset, spread),
                (dur, ss, sd, tz),
                (seed, lease, perm_offset, step_half),
                (outage, weekend, drift, base),
            )| {
                let profile = BlockProfile {
                    n_stable: ns,
                    n_diurnal: nd,
                    stable_avail: sa,
                    diurnal_avail: da,
                    onset_hours: onset,
                    onset_spread: spread,
                    duration_hours: dur,
                    duration_spread: 1.0,
                    sigma_start: ss,
                    sigma_duration: sd,
                    utc_offset_hours: tz,
                };
                let mut b = BlockSpec::bare(21, seed, profile);
                b.lease = lease.map(|(period_hours, duty)| LeaseParams { period_hours, duty });
                b.outage = outage.map(|(start, len)| (base + start, base + start + len));
                b.weekend_scale = weekend;
                b.drift_addr_per_day = drift;
                b.drift_ref = base;
                b.perm_offset = perm_offset;
                b.perm_step = step_half * 2 + 1;
                (b, base)
            },
        )
}

/// Steps between consecutive probe times: forward within a day (rounds
/// are 660 s apart), the same time again, backwards jumps and multi-day
/// gaps, so every branch of the day-window memo is taken.
fn arb_time_steps() -> impl Strategy<Value = Vec<i64>> {
    let step = (0u8..7, 0i64..=3_600, 1i64..(3 * 86_400), 86_400i64..(9 * 86_400)).prop_map(
        |(kind, forward, back, gap)| match kind {
            0..=3 => forward,
            4 => 0,
            5 => -back,
            _ => gap,
        },
    );
    prop::collection::vec(step, 1..100)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Probing through a long-lived per-address memo gives exactly the
    /// outcome — and the exact response probability bits — of the uncached
    /// `probe_outcome`, whatever order the probe times come in.
    #[test]
    fn memoised_probe_outcomes_match_probe_outcome(
        block in arb_probed_block(),
        start in 0u64..(3 * 86_400),
        steps in arb_time_steps(),
    ) {
        let (b, base) = block;
        // A spread of addresses covering stable, cycling and inactive slots.
        let addrs: Vec<u8> = (0..=255u8).step_by(7).collect();
        let mut memos: Vec<_> = addrs.iter().map(|&a| b.addr_memo(a)).collect();
        let mut time = base + start;
        for step in steps {
            time = time.saturating_add_signed(step);
            for (&addr, memo) in addrs.iter().zip(&mut memos) {
                prop_assert_eq!(
                    b.probe_outcome_with(addr, time, memo),
                    b.probe_outcome(addr, time),
                    "addr {} at t={}", addr, time
                );
                prop_assert_eq!(
                    b.response_probability_with(addr, time, memo).to_bits(),
                    b.response_probability(addr, time).to_bits(),
                    "addr {} at t={}", addr, time
                );
            }
        }
    }

    #[test]
    fn address_permutation_is_always_a_bijection(
        offset in 0u8..=255,
        step_half in 0u8..=127,
    ) {
        let mut b = BlockSpec::bare(1, 1, BlockProfile::always_on(10, 0.5));
        b.perm_offset = offset;
        b.perm_step = step_half * 2 + 1;
        let mut seen = [false; 256];
        for slot in 0..=255u8 {
            let a = b.slot_to_addr(slot);
            prop_assert!(!seen[a as usize]);
            seen[a as usize] = true;
            prop_assert_eq!(b.addr_to_slot(a), slot);
        }
    }

    #[test]
    fn class_counts_match_profile(profile in arb_profile(), seed in 0u64..1000) {
        let b = BlockSpec::bare(3, seed, profile);
        let mut stable = 0u16;
        let mut diurnal = 0u16;
        for addr in 0..=255u8 {
            match b.behavior_of(addr) {
                AddressBehavior::On { .. } => stable += 1,
                AddressBehavior::Diurnal { .. } | AddressBehavior::Periodic { .. } => diurnal += 1,
                AddressBehavior::Inactive => {}
            }
        }
        prop_assert_eq!(stable, profile.n_stable);
        prop_assert_eq!(diurnal, profile.n_diurnal);
    }

    #[test]
    fn availability_is_a_probability(
        profile in arb_profile(),
        seed in 0u64..1000,
        time in 0u64..(40 * 86_400),
    ) {
        let b = BlockSpec::bare(4, seed, profile);
        let a = b.true_availability(time);
        prop_assert!((0.0..=1.0).contains(&a), "A = {a}");
        let active = b.active_count(time);
        prop_assert!(active <= b.ever_active_count());
    }

    #[test]
    fn probing_is_deterministic(
        profile in arb_profile(),
        seed in 0u64..1000,
        addr in 0u8..=255,
        time in 0u64..(40 * 86_400),
    ) {
        let b = BlockSpec::bare(5, seed, profile);
        prop_assert_eq!(b.probe(addr, time), b.probe(addr, time));
    }

    #[test]
    fn drift_keeps_probabilities_clamped(
        drift in -50.0f64..50.0,
        time in 0u64..(40 * 86_400),
    ) {
        let mut b = BlockSpec::bare(6, 9, BlockProfile::always_on(100, 0.5));
        b.drift_addr_per_day = drift;
        let p = b.response_probability(b.slot_to_addr(0), time);
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
    }

    #[test]
    fn diurnal_duty_cycle_tracks_duration(
        dur in 2.0f64..20.0,
        onset in 0.0f64..24.0,
    ) {
        let key = AddrKey { seed: 1, block: 2, addr: 3 };
        let b = AddressBehavior::Diurnal {
            onset_hours: onset,
            duration_hours: dur,
            sigma_start: 0.0,
            sigma_duration: 0.0,
            avail: 1.0,
            utc_offset_hours: 0.0,
        };
        let rounds = 131 * 40;
        let up = (0..rounds).filter(|&r| b.is_up(key, r * 660)).count();
        let duty = up as f64 / rounds as f64;
        prop_assert!((duty - dur / 24.0).abs() < 0.02, "duty {duty} for {dur}h");
    }

    #[test]
    fn inactive_addresses_never_respond(
        seed in 0u64..1000,
        time in 0u64..(40 * 86_400),
    ) {
        let b = BlockSpec::bare(8, seed, BlockProfile::always_on(100, 1.0));
        // Slots ≥ 100 are inactive.
        let addr = b.slot_to_addr(200);
        prop_assert!(!b.probe(addr, time));
    }
}
