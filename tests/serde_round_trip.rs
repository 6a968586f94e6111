//! Every type in the workspace that derives `Serialize` + `Deserialize` (and
//! the hand-written pairs next to them) really encodes to JSON and decodes
//! back to the same value: a type keeps the derive only while it is in this
//! table.

use future_packet_buffers::buffers::BufferStats;
use future_packet_buffers::cacti::{
    estimate_sram, ArrayPartition, CamOrganization, ProcessNode, SramOrganization,
};
use future_packet_buffers::cfds::RrEntry;
use future_packet_buffers::dram::{
    AccessKind, AddressMapper, BankId, DramRequest, DramStats, GroupId, InterleavingConfig,
    MultiChipConfig, SdramChip, SdramTimingCycles,
};
use future_packet_buffers::model::{
    Cell, CfdsConfig, ConfigOverrides, LineRate, LogicalQueueId, Nanoseconds, PhysicalQueueId,
    QueueKind, RadsConfig, Slot, SlotDuration,
};
use future_packet_buffers::sim::clos::{ClosScenario, ClosSpec, ObsScenario, TransportScenario};
use future_packet_buffers::sim::fabric::{FabricScenario, FabricSpec};
use future_packet_buffers::sim::scenario::Scenario;
use future_packet_buffers::sim::techeval::{cfds_point, evaluate_sram_impl};
use future_packet_buffers::srambuf::{PointerTable, SramImplKind, SramImplSpec};
use future_packet_buffers::traffic::MatrixTrace;
use serde::{Deserialize, Serialize};
use std::fmt::Debug;

/// Encodes `value`, decodes the text and compares the two values through
/// `Debug` (not every type here is `PartialEq`). Returns the JSON text.
fn round_trip<T>(value: &T) -> String
where
    T: Serialize + for<'de> Deserialize<'de> + Debug,
{
    let json =
        serde_json::to_string(value).unwrap_or_else(|e| panic!("{value:?} does not encode: {e}"));
    let back: T =
        serde_json::from_str(&json).unwrap_or_else(|e| panic!("{json} does not decode: {e}"));
    assert_eq!(format!("{back:?}"), format!("{value:?}"), "{json}");
    json
}

#[test]
fn every_derive_site_round_trips_through_json() {
    // pktbuf-model
    let queue = LogicalQueueId::new(3);
    let physical = PhysicalQueueId::new(5);
    assert_eq!(round_trip(&queue), "3");
    round_trip(&physical);
    round_trip(&QueueKind::Physical);
    round_trip(&Slot::new(9));
    round_trip(&Nanoseconds::new(3.2));
    round_trip(&SlotDuration::from_ns(12.8));
    round_trip(&RadsConfig::for_line_rate(LineRate::Oc768, 128));
    let cfds = CfdsConfig {
        lookahead: Some(2_000),
        ..CfdsConfig::default()
    };
    cfds.validate().unwrap();
    round_trip(&cfds);
    assert_eq!(round_trip(&ConfigOverrides::none()), "{}");
    // `Cell` decodes through `Cell::new`; the payload is not part of the
    // document.
    assert_eq!(
        round_trip(&Cell::new(queue, 7, 11)),
        r#"{"queue":3,"seq":7,"arrival_slot":11}"#
    );

    // dram-sim
    let mut stats = DramStats::default();
    stats.record_access(4, 8);
    stats.record_conflict();
    round_trip(&stats);
    round_trip(&SdramTimingCycles::pc100());
    round_trip(&SdramChip::reference_16mb());
    round_trip(&MultiChipConfig::new(SdramChip::reference_16mb(), 4));
    round_trip(&BankId::new(6));
    round_trip(&GroupId::new(2));
    round_trip(&AccessKind::Write);
    let request = DramRequest::read(physical, 12, 40);
    round_trip(&request);
    let mapper = AddressMapper::new(InterleavingConfig::from_cfds(&cfds));
    round_trip(&InterleavingConfig::from_cfds(&cfds));
    round_trip(&mapper.decode(physical, 12));
    round_trip(&mapper);

    // cacti-lite
    let node = ProcessNode::node_130nm();
    let organization = SramOrganization::new(64 * 1024, 64).with_ports(1, 2);
    round_trip(&node);
    round_trip(&organization);
    round_trip(&CamOrganization::new(1_024, 512, 19));
    round_trip(&ArrayPartition {
        subarrays: 4,
        rows: 256,
        cols: 512,
    });
    round_trip(&estimate_sram(&organization, &node));

    // sram-buf, cfds, core
    round_trip(&SramImplKind::UnifiedLinkedListTimeMux);
    round_trip(&SramImplSpec::for_kind(SramImplKind::GlobalCam, 512, 4_096));
    let mut pointers = PointerTable::new(2);
    pointers.push_tail(1, 17);
    round_trip(&pointers);
    round_trip(&RrEntry {
        request,
        bank: BankId::new(6),
        submitted_slot: 41,
    });
    // The hand-written encoder adds the computed `loss_free`; the derived
    // decoder skips it as an unknown key.
    let stats = BufferStats {
        slots: 10,
        grants: 9,
        ..BufferStats::default()
    };
    assert!(round_trip(&stats).ends_with(r#""loss_free":true}"#));

    // traffic
    let mut matrix = MatrixTrace::new(2);
    matrix.record_slot(&[Some((1, 0)), None]);
    assert_eq!(round_trip(&matrix), r#"{"arrivals":[[[1,0]],[null]]}"#);

    // sim
    round_trip(&evaluate_sram_impl(SramImplKind::GlobalCam, 256, 32, &node));
    round_trip(&cfds_point(&cfds, 2_000, &node));
    round_trip(&Scenario::small_cfds());
    round_trip(&TransportScenario::default());
    round_trip(&ObsScenario::standard());
    round_trip(&FabricScenario::small());
    round_trip(&ClosScenario::small_transport());
    // The derived spec documents; `to_json` / `from_json` add and check the
    // `"kind"` tag around them.
    assert!(!round_trip(&FabricSpec::default()).contains("kind"));
    round_trip(&ClosSpec::default());
}
