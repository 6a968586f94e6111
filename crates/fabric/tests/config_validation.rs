//! `ClosConfig::validate` and `FabricConfig::validate` against the
//! constructors they guard: on a grid across and beyond every bound, a
//! configuration validates exactly when `ClosFabric::new` / `VoqSwitch::new`
//! builds it, and a refused one panics with the validation message.

use fabric::{
    ClosConfig, ClosFabric, ClosStage, FabricConfig, VoqSwitch, MAX_LINK_CAPACITY, MAX_LINK_LATENCY,
};
use pktbuf::RadsBuffer;
use pktbuf_model::RadsConfig;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

fn buffer(num_queues: usize) -> RadsBuffer {
    RadsBuffer::new(RadsConfig {
        num_queues,
        granularity: 1,
        lookahead: None,
    })
}

thread_local! {
    /// Set while this thread runs a build whose panic is expected.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `build` and returns its panic message. The panic hook is swapped
/// once, process-wide, for one that is silent while its thread is inside
/// this call (hundreds of refusals would otherwise each print a backtrace
/// note) and passes every other panic, such as a failed assertion in
/// either test, to the default hook.
fn panic_message(build: impl FnOnce()) -> Option<String> {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                default(info);
            }
        }));
    });
    QUIET.with(|quiet| quiet.set(true));
    let result = catch_unwind(AssertUnwindSafe(build));
    QUIET.with(|quiet| quiet.set(false));
    result
        .err()
        .map(|payload| match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast::<&str>()
                .map_or_else(|_| "<non-string panic>".to_owned(), |m| (*m).to_owned()),
        })
}

/// Crossbar sizes across and beyond `2..=MAX_CROSSBAR_PORTS`.
const SIZES: [usize; 5] = [0, 1, 2, 64, 65];

#[test]
fn clos_validate_agrees_with_new() {
    let mut built = 0;
    for radix in SIZES {
        for ingress_switches in SIZES {
            // The one valid corner left out: a 64 × 64 Clos has 4 096
            // external ports, and its per-flow matrices alone take about
            // half a gigabyte. Each bound is still met on both sides, by
            // the 64 × 2 and 2 × 64 points.
            if (radix, ingress_switches) == (64, 64) {
                continue;
            }
            for middle_switches in [0, radix, radix + 1] {
                for link_capacity in [0, 1, MAX_LINK_CAPACITY, MAX_LINK_CAPACITY + 1] {
                    for link_latency in [0, MAX_LINK_LATENCY, MAX_LINK_LATENCY + 1] {
                        let config = ClosConfig {
                            link_capacity,
                            link_latency,
                            ..ClosConfig::new(radix, ingress_switches, middle_switches)
                        };
                        let verdict = config.validate();
                        let panicked = panic_message(|| {
                            ClosFabric::new(config, |stage| {
                                buffer(match stage {
                                    ClosStage::Middle => ingress_switches,
                                    ClosStage::Ingress | ClosStage::Egress => radix,
                                })
                            });
                        });
                        assert_eq!(panicked, verdict.err().map(|e| e.to_string()), "{config:?}");
                        built += usize::from(verdict.is_ok());
                    }
                }
            }
        }
    }
    // N, r ∈ {2, 64} without 64 × 64, m = N, two capacities, two latencies.
    assert_eq!(built, 3 * 2 * 2);
}

#[test]
fn switch_validate_agrees_with_new() {
    for ports in SIZES {
        let config = FabricConfig::new(ports);
        let buffers = (0..ports).map(|_| buffer(ports)).collect();
        let panicked = panic_message(|| {
            VoqSwitch::new(config, buffers);
        });
        assert_eq!(
            panicked,
            config.validate().err().map(|e| e.to_string()),
            "{ports} ports"
        );
    }
}
