//! Property-based and end-to-end invariants of the `fabric` VOQ switch
//! layer: cell conservation across the whole router, determinism, and the
//! zero-loss envelope.

use future_packet_buffers::sim::clos::{
    ClosScenario, DispatchChoice, ObsScenario, TransportMode, TransportScenario,
};
use future_packet_buffers::sim::fabric::{
    ArbiterChoice, FabricDesign, FabricScenario, FabricWorkload,
};
use future_packet_buffers::sim::scenario::DesignKind;
use future_packet_buffers::sim::{FaultEvent, FaultKind, FaultPlan, LinkBoundary};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cell conservation holds for arbitrary fabric shapes: per flow
    /// `(i, j)`, departures never exceed arrivals; per ingress port, offered
    /// arrivals split exactly into departures, residents and tail drops; per
    /// egress port, transmissions equal the departures aimed at it; and the
    /// whole fabric balances arrivals = transmitted + resident + dropped.
    /// The same scenario re-run is bit-identical (simulation is a pure
    /// function of its parameters).
    #[test]
    fn fabric_conserves_cells_and_replays_deterministically(
        ports in 2usize..=6,
        design_index in 0usize..4,
        workload_index in 0usize..4,
        arbiter_index in 0usize..2,
        load_percent in 40u64..=80,
        egress_period in 1u64..=3,
        arrival_slots in 300u64..=900,
        seed in 0u64..10_000,
    ) {
        let design = FabricDesign::all()[design_index];
        let workload = FabricWorkload::all()[workload_index];
        let arbiter = ArbiterChoice::all()[arbiter_index];
        let scenario = FabricScenario {
            ports,
            design,
            workload,
            arbiter,
            load_percent,
            egress_period,
            arrival_slots,
            seed,
            granularity: 2,
            rads_granularity: 8,
            num_banks: 16,
            ..FabricScenario::small()
        };
        prop_assert!(scenario.validate().is_ok(), "{scenario:?}");
        let report = scenario.run();
        prop_assert!(report.conservation_holds(), "{scenario:?}: {report:?}");
        prop_assert_eq!(report.slots >= arrival_slots, true);
        prop_assert_eq!(report.arrivals_matrix.len(), ports * ports);
        // Inside the documented zero-loss envelope (worst-case designs,
        // full-rate egress, non-bursty admissible traffic) no cell may be
        // lost. Bursty at small port counts and the DRAM-only baseline are
        // outside it — conservation above still had to hold for them.
        let worst_case_design = design != FabricDesign::Fixed(DesignKind::DramOnly);
        if worst_case_design && workload != FabricWorkload::Bursty && egress_period == 1 {
            prop_assert!(report.zero_loss, "{scenario:?}: {report:?}");
        }
        // Determinism: the identical scenario replays bit-identically.
        let replay = scenario.run();
        prop_assert_eq!(&replay, &report);
    }

    /// Chaos invariant: a random fault plan over a random Clos shape never
    /// loses a cell silently. Either the run is zero-loss, or every missing
    /// cell appears in the fault ledger (refused at a dead ingress port or
    /// dropped on a full link under drop-on-full); stranded cells stay
    /// inside the degraded-mode conservation balance either way. The same
    /// seed replays bit-identically, including through the skip-free
    /// reference twin.
    #[test]
    fn faulted_clos_ledgers_every_missing_cell_and_replays(
        radix in 2usize..=4,
        ingress in 2usize..=3,
        middle_raw in 1usize..=4,
        dispatch_index in 0usize..2,
        death_switch in 0usize..4,
        death_start in 100u64..=500,
        death_permanent in prop::bool::ANY,
        flap_boundary in prop::bool::ANY,
        flap_switch in 0usize..4,
        flap_output in 0usize..4,
        flap_start in 100u64..=600,
        flap_len in 50u64..=250,
        slow_port in 0usize..16,
        slow_factor in 2u64..=4,
        kill_ingress in prop::bool::ANY,
        kill_port in 0usize..16,
        drop_on_full in prop::bool::ANY,
        load_percent in 40u64..=85,
        arrival_slots in 400u64..=800,
        seed in 0u64..10_000,
    ) {
        let middle = middle_raw.min(radix);
        let ext = ingress * radix;
        let mut events = vec![
            if death_permanent {
                FaultEvent::permanent(
                    FaultKind::MiddleDeath { switch: death_switch % middle },
                    death_start,
                )
            } else {
                FaultEvent::windowed(
                    FaultKind::MiddleDeath { switch: death_switch % middle },
                    death_start,
                    300,
                )
            },
            FaultEvent::windowed(
                if flap_boundary {
                    FaultKind::LinkFlap {
                        boundary: LinkBoundary::IngressMiddle,
                        switch: flap_switch % ingress,
                        output: flap_output % middle,
                    }
                } else {
                    FaultKind::LinkFlap {
                        boundary: LinkBoundary::MiddleEgress,
                        switch: flap_switch % middle,
                        output: flap_output % ingress,
                    }
                },
                flap_start,
                flap_len,
            ),
            FaultEvent::windowed(
                FaultKind::EgressSlowdown { port: slow_port % ext, factor: slow_factor },
                150,
                400,
            ),
        ];
        if kill_ingress {
            events.push(FaultEvent::permanent(
                FaultKind::IngressPortDeath { port: kill_port % ext },
                death_start + 50,
            ));
        }
        if drop_on_full {
            events.push(FaultEvent::permanent(FaultKind::DropOnFull, 0));
        }
        let scenario = ClosScenario {
            radix,
            ingress_switches: ingress,
            middle_switches: middle,
            dispatch: DispatchChoice::all()[dispatch_index],
            load_percent,
            arrival_slots,
            seed,
            faults: FaultPlan::new(events),
            ..ClosScenario::small()
        };
        prop_assert!(scenario.validate().is_ok(), "{scenario:?}");
        let report = scenario.run();
        prop_assert!(report.conservation_holds(), "{scenario:?}: {report:?}");
        let ledger = report.faults.as_ref().expect("armed plans always report");
        // No silent loss: everything lost is refused or dropped in the
        // ledger, and a run with nothing ledgered lost nothing.
        prop_assert_eq!(
            report.lost_cells,
            ledger.refused_cells + ledger.dropped_cells,
            "{:?}", ledger
        );
        if !kill_ingress && !drop_on_full {
            prop_assert!(report.zero_loss, "{scenario:?}: {report:?}");
        }
        // Same-seed replay is bit-identical, and so is the skip-free
        // reference twin.
        prop_assert_eq!(&scenario.run(), &report);
        prop_assert_eq!(&scenario.run_reference(), &report);
    }

    /// Chaos invariant for the closed loop: a random fault plan under the
    /// reliable transport never delivers a cell past dedup twice, always
    /// closes both the transport ledger (`injected = acked + in flight +
    /// queued retransmissions + abandoned`) and the fabric conservation
    /// balance, explains the fabric's deliveries as unique cells plus
    /// filtered duplicates, and replays bit-identically. Permanent faults
    /// may abandon cells (the retry budget is small by design here) —
    /// abandonment must stay inside the ledger, never silent.
    #[test]
    fn faulted_closed_loop_delivers_exactly_once_and_replays(
        radix in 2usize..=4,
        ingress in 2usize..=3,
        middle_raw in 1usize..=4,
        incast in prop::bool::ANY,
        death_switch in 0usize..4,
        death_start in 100u64..=400,
        death_permanent in prop::bool::ANY,
        flap_boundary in prop::bool::ANY,
        flap_switch in 0usize..4,
        flap_output in 0usize..4,
        flap_start in 100u64..=500,
        flap_len in 50u64..=200,
        kill_ingress in prop::bool::ANY,
        kill_port in 0usize..16,
        rto_initial in 8u64..=32,
        arrival_slots in 400u64..=800,
        seed in 0u64..10_000,
    ) {
        let middle = middle_raw.min(radix);
        let ext = ingress * radix;
        let mut events = vec![
            if death_permanent {
                FaultEvent::permanent(
                    FaultKind::MiddleDeath { switch: death_switch % middle },
                    death_start,
                )
            } else {
                FaultEvent::windowed(
                    FaultKind::MiddleDeath { switch: death_switch % middle },
                    death_start,
                    250,
                )
            },
            FaultEvent::windowed(
                if flap_boundary {
                    FaultKind::LinkFlap {
                        boundary: LinkBoundary::IngressMiddle,
                        switch: flap_switch % ingress,
                        output: flap_output % middle,
                    }
                } else {
                    FaultKind::LinkFlap {
                        boundary: LinkBoundary::MiddleEgress,
                        switch: flap_switch % middle,
                        output: flap_output % ingress,
                    }
                },
                flap_start,
                flap_len,
            ),
        ];
        if kill_ingress {
            events.push(FaultEvent::permanent(
                FaultKind::IngressPortDeath { port: kill_port % ext },
                death_start,
            ));
        }
        let scenario = ClosScenario {
            radix,
            ingress_switches: ingress,
            middle_switches: middle,
            arrival_slots,
            seed,
            faults: FaultPlan::new(events),
            transport: Some(TransportScenario {
                mode: if incast { TransportMode::Incast } else { TransportMode::Sweep },
                incast_target: (seed % ext as u64) as u32,
                rto_initial,
                rto_cap: 256,
                max_retries: 8,
                ..TransportScenario::default()
            }),
            ..ClosScenario::small_transport()
        };
        prop_assert!(scenario.validate().is_ok(), "{scenario:?}");
        let report = scenario.run();
        let t = report.transport.as_ref().expect("transport runs always report");
        prop_assert_eq!(t.duplicate_deliveries, 0, "{:?}: {:?}", scenario, t);
        prop_assert!(report.transport_conservation_holds(), "{scenario:?}: {t:?}");
        prop_assert!(report.conservation_holds(), "{scenario:?}: {report:?}");
        // Every fabric delivery is accounted for: a first copy or a filtered
        // retransmission duplicate.
        prop_assert_eq!(
            report.delivered,
            t.delivered_unique + t.duplicates_filtered,
            "{:?}", t
        );
        // Only permanent faults may exhaust the retry budget.
        if !death_permanent && !kill_ingress {
            prop_assert_eq!(t.gave_up_cells, 0, "{:?}: {:?}", scenario, t);
        }
        // Same-seed replay is bit-identical.
        prop_assert_eq!(&scenario.run(), &report);
    }

    /// Observability invariant over random Clos shapes: arming every probe —
    /// histograms, series, flight recorder — changes nothing about the run's
    /// results and stays schedule-invariant (the fast-forwarding driver and
    /// the skip-free reference twin report the same histograms, series and
    /// merged trace), while an all-off obs layer leaves the whole report
    /// byte-identical to an unarmed run.
    #[test]
    fn armed_clos_probes_are_schedule_invariant_and_off_is_free(
        radix in 2usize..=4,
        ingress in 2usize..=3,
        middle_raw in 1usize..=4,
        dispatch_index in 0usize..2,
        load_percent in 40u64..=85,
        series_stride in 40u64..=200,
        arrival_slots in 400u64..=800,
        seed in 0u64..10_000,
    ) {
        let base = ClosScenario {
            radix,
            ingress_switches: ingress,
            middle_switches: middle_raw.min(radix),
            dispatch: DispatchChoice::all()[dispatch_index],
            load_percent,
            arrival_slots,
            seed,
            ..ClosScenario::small()
        };
        let baseline = base.run();
        // All probes off (explicitly or by absence) is byte-identical.
        let off = ClosScenario { obs: Some(ObsScenario::default()), ..base.clone() };
        prop_assert_eq!(&off.run(), &baseline);
        // Every probe armed: the traffic results are unchanged, the probes
        // report real measurements, and driver and reference produce the
        // same report bit for bit.
        let armed = ClosScenario {
            obs: Some(ObsScenario {
                series_stride,
                series_capacity: 64,
                trace_capacity: 1 << 14,
                ..ObsScenario::standard()
            }),
            ..base
        };
        let report = armed.run_reference();
        // The probes only *add* sections (per-output percentiles, the obs
        // report); every traffic-level result is unchanged.
        prop_assert_eq!(report.delivered, baseline.delivered);
        prop_assert_eq!(report.arrivals, baseline.arrivals);
        prop_assert_eq!(report.lost_cells, baseline.lost_cells);
        prop_assert_eq!(report.reordered_cells, baseline.reordered_cells);
        prop_assert_eq!(report.credit_stall_slots, baseline.credit_stall_slots);
        prop_assert_eq!(report.slots, baseline.slots);
        prop_assert_eq!(report.mean_latency_slots, baseline.mean_latency_slots);
        prop_assert_eq!(report.max_latency_slots, baseline.max_latency_slots);
        prop_assert_eq!(&report.delivered_matrix, &baseline.delivered_matrix);
        let obs = report.obs.as_ref().expect("armed runs always report");
        let latency = obs.latency.as_ref().expect("latency probes were armed");
        prop_assert_eq!(latency.count, report.delivered);
        prop_assert!(latency.p50 <= latency.p95 && latency.p99 <= latency.max);
        prop_assert_eq!(&armed.run(), &report);
    }
}

/// The acceptance scenario at test scale: a 16×16 per-port-CFDS fabric under
/// incast and admissible uniform load delivers every cell and keeps the
/// crossbar ≥ 90% utilised on the uniform run.
#[test]
fn sixteen_port_cfds_fabric_meets_the_acceptance_gates() {
    let base = FabricScenario {
        ports: 16,
        design: FabricDesign::Fixed(DesignKind::Cfds),
        granularity: 4,
        rads_granularity: 16,
        num_banks: 64,
        load_percent: 95,
        arrival_slots: 6_000,
        ..FabricScenario::small()
    };
    // Incast at two loads: near-saturation (95%, where the admissible
    // fraction clamps to the uniform share) and 30%, where the target output
    // absorbs ~3.2× its uniform share — genuine many-to-one convergence
    // with the target still at 95% of its line rate.
    for load_percent in [95u64, 30] {
        let incast = FabricScenario {
            workload: FabricWorkload::Incast,
            load_percent,
            ..base
        }
        .run();
        assert!(incast.zero_loss, "load {load_percent}: {incast:?}");
        assert!(incast.conservation_holds());
        if load_percent == 30 {
            // The convergence must be visible in the traffic matrix: output
            // 0 receives several times the per-output mean.
            let to_target: u64 = (0..16).map(|i| incast.arrivals_matrix[i * 16]).sum();
            let mean_per_output = incast.arrivals as f64 / 16.0;
            assert!(
                to_target as f64 > 2.0 * mean_per_output,
                "incast matrix must converge on the target: {to_target} vs mean {mean_per_output}"
            );
        }
    }
    let uniform = FabricScenario {
        workload: FabricWorkload::Uniform,
        ..base
    }
    .run();
    assert!(uniform.zero_loss, "{uniform:?}");
    assert!(
        uniform.crossbar_utilization >= 0.90,
        "utilisation {}",
        uniform.crossbar_utilization
    );
}
