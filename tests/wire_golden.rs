//! Golden bytes for every wire type: one fixed value per enum variant (and
//! one per struct), with the exact hex it must encode to.
//!
//! `crates/net/tests/codec_props.rs` only checks that encode and decode
//! agree with each other, so a change made consistently to both directions
//! passes it. This file pins the bytes themselves: peers built from
//! different commits and WAL files written by an older build must keep
//! understanding each other while `WIRE_VERSION` stays the same.
//!
//! Every message sample also pins its `bits()` and `kind()`: the cost that
//! the message-size experiments (Lemmas 3.8 and 5.5) measure and the label
//! per-kind telemetry files it under. A changed cost moves the E-tables,
//! the state digests and the model checker's counts, not the wire format.

use std::fmt::Debug;

use dpq_agg::{Interval, Segments};
use dpq_core::{BitSize, ElemId, Element, Key, NodeId, Priority};
use dpq_dht::{DhtReq, DhtResp};
use dpq_gossip::{DigestEntry, GossipMsg, NodeDelta};
use dpq_net::ctl::{CtlReq, CtlResp, StatusInfo};
use dpq_net::frame::Hello;
use dpq_net::wal::{CtlOpKind, WalEntry};
use dpq_net::wire::RawBytes;
use dpq_net::{from_bytes, to_bytes, ProtoId, Wire, WIRE_VERSION};
use dpq_overlay::routing::{HopMsg, RouteMsg};
use dpq_overlay::{VirtId, VirtKind};
use dpq_sim::ReliableMsg;
use kselect::msgs::{Compare, Place, Split, ROOT_PARENT};
use kselect::{Cmd, KMsg, Rsp};
use seap::SeapMsg;
use skeap::{Batch, BatchEntry, EntryAssign, SkeapMsg};

/// Collects every value whose encoding differs from its pinned hex, and
/// every message whose cost differs from its pinned one, so one run reports
/// all of them.
#[derive(Default)]
struct Golden {
    wrong: Vec<String>,
    costs: Vec<String>,
}

impl Golden {
    /// `value` must encode to exactly `hex` and decode back to itself.
    fn pin<T: Wire + Debug>(&mut self, what: &str, value: T, hex: &str) {
        let bytes = to_bytes(&value);
        let got: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        if got != hex {
            self.wrong
                .push(format!("{what}: pinned {hex:?}, encodes to {got:?}"));
            return;
        }
        match from_bytes::<T>(&bytes) {
            Ok(back) => assert_eq!(
                format!("{back:?}"),
                format!("{value:?}"),
                "{what}: golden bytes decode to a different value"
            ),
            Err(e) => panic!("{what}: golden bytes fail to decode: {e}"),
        }
    }

    /// [`pin`](Self::pin), and the message must cost exactly `bits` under
    /// the label `kind`.
    fn priced<T: Wire + BitSize + Debug>(
        &mut self,
        what: &str,
        value: T,
        hex: &str,
        bits: u64,
        kind: &str,
    ) {
        let (got_bits, got_kind) = (value.bits(), value.kind().as_str());
        if (got_bits, got_kind) != (bits, kind) {
            self.costs.push(format!(
                "{what}: pinned {bits} bits {kind:?}, costs {got_bits} bits {got_kind:?}"
            ));
        }
        self.pin(what, value, hex);
    }
}

impl Drop for Golden {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        if !self.costs.is_empty() {
            panic!(
                "a message's cost or kind changed.\n{}\n\
                 The message-size tables, state digests and model-checker \
                 counts move with it; re-pin only for an intended change.",
                self.costs.join("\n")
            );
        }
        if !self.wrong.is_empty() {
            panic!(
                "the wire encoding changed (WIRE_VERSION is {WIRE_VERSION}).\n{}\n\
                 Peers and WAL files from other builds can no longer be read. \
                 If the change is intended, bump WIRE_VERSION in \
                 crates/net/src/frame.rs and re-pin the bytes above.",
                self.wrong.join("\n")
            );
        }
    }
}

fn key() -> Key {
    Key {
        prio: Priority(3),
        elem: ElemId(300),
    }
}

fn elem() -> Element {
    Element {
        id: ElemId(7),
        prio: Priority(2),
        payload: 1_000_000,
    }
}

fn virt() -> VirtId {
    VirtId {
        real: NodeId(5),
        kind: VirtKind::Right,
    }
}

fn interval(lo: u64, hi: u64) -> Interval {
    Interval { lo, hi }
}

fn route<M>(payload: M) -> RouteMsg<M> {
    RouteMsg {
        target: 0.375,
        at: virt(),
        steps_done: 130,
        walk_back: true,
        payload,
    }
}

fn put() -> DhtReq {
    DhtReq::Put {
        logical: 129,
        elem: elem(),
        reply_to: NodeId(4),
        id: 77,
    }
}

fn get_ok() -> DhtResp {
    DhtResp::GetOk {
        id: 77,
        elem: elem(),
    }
}

fn batch() -> Batch {
    Batch {
        n_prios: 2,
        entries: vec![
            BatchEntry {
                ins: [11, 12].into_iter().collect(),
                del: 1,
            },
            BatchEntry {
                ins: [].into_iter().collect(),
                del: 0,
            },
        ],
    }
}

fn assign() -> EntryAssign {
    EntryAssign {
        ins: [interval(0, 2)].into_iter().collect(),
        ins_seq: interval(5, 7),
        del: Segments {
            parts: [(1, interval(0, 4)), (3, interval(4, 9))]
                .into_iter()
                .collect(),
        },
        bottom: 2,
        del_seq: interval(7, 8),
        lifo: true,
    }
}

fn place() -> Place {
    Place {
        epoch: 3,
        pos: 9,
        key: key(),
        origin: NodeId(2),
        n_prime: 1000,
    }
}

fn split() -> Split {
    Split {
        epoch: 3,
        cand: 4,
        key: key(),
        a: 5,
        b: 6,
        parent: NodeId(1),
        parent_copy: 2,
    }
}

fn compare() -> Compare {
    Compare {
        epoch: 3,
        cand: 4,
        copy: 1,
        key: key(),
        back: NodeId(6),
    }
}

fn digest() -> DigestEntry {
    DigestEntry {
        node: NodeId(3),
        incarnation: 2,
        max_version: 200,
    }
}

fn delta() -> NodeDelta {
    NodeDelta {
        node: NodeId(1),
        incarnation: 1,
        entries: vec![(0, 42, 1), (1, 1 << 40, 2)],
    }
}

fn status() -> StatusInfo {
    StatusInfo {
        node: 2,
        proto: "skeap".into(),
        issued: 10,
        completed: 7,
        all_complete: false,
        result: Some(key()),
        ticks: 12345,
        retransmits: 2,
        dup_suppressed: 1,
        unacked: 3,
    }
}

#[test]
fn primitives_and_containers_are_pinned() {
    let mut g = Golden::default();
    g.priced("u64 0", 0u64, "00", 1, "other");
    g.priced("u64 300", 300u64, "ac02", 17, "other");
    g.priced("u64 max", u64::MAX, "ffffffffffffffffff01", 127, "other");
    g.priced("Option None", None::<u64>, "00", 1, "other");
    g.priced("Option Some", Some(5u64), "0105", 6, "other");
    g.priced("Vec", vec![1u64, 128], "02018001", 21, "other");
    g.priced("pair", (1u64, 2u64), "0102", 6, "other");
    g.priced("triple", (1u64, 2u64, 3u64), "010203", 11, "other");
    g.pin("String", String::from("dpq"), "03647071");
    g.pin("RawBytes", RawBytes(vec![0xde, 0xad]), "02dead");
}

#[test]
fn core_overlay_and_dht_types_are_pinned() {
    let mut g = Golden::default();
    g.priced("NodeId", NodeId(300), "ac02", 17, "other");
    g.priced("ElemId", ElemId(7), "07", 7, "other");
    g.priced("Priority", Priority(2), "02", 3, "other");
    g.priced("Key", key(), "03ac02", 22, "other");
    g.priced("Element", elem(), "0702c0843d", 49, "other");
    g.priced("Interval", interval(10, 200), "0ac801", 22, "other");
    g.priced("Segments", assign().del, "02010004030409", 29, "other");
    g.pin("VirtKind::Left", VirtKind::Left, "00");
    g.pin("VirtKind::Middle", VirtKind::Middle, "01");
    g.pin("VirtKind::Right", VirtKind::Right, "02");
    g.pin("VirtId", virt(), "0502");
    g.priced(
        "RouteMsg",
        route(9u64),
        "000000000000d83f050282010109",
        94,
        "other",
    );
    g.priced(
        "HopMsg",
        HopMsg {
            at: virt(),
            walk_back: false,
            payload: 9u64,
        },
        "05020009",
        15,
        "other",
    );
    g.priced("DhtReq::Put", put(), "0081010702c0843d044d", 83, "other");
    g.priced(
        "DhtReq::Get",
        DhtReq::Get {
            logical: 129,
            reply_to: NodeId(4),
            id: 77,
        },
        "018101044d",
        34,
        "other",
    );
    g.priced(
        "DhtResp::PutAck",
        DhtResp::PutAck { id: 77 },
        "004d",
        14,
        "other",
    );
    g.priced("DhtResp::GetOk", get_ok(), "014d0702c0843d", 63, "other");
}

#[test]
fn skeap_alphabet_is_pinned() {
    let mut g = Golden::default();
    g.pin("BatchEntry", batch().entries.remove(0), "020b0c01");
    g.priced("Batch", batch(), "0202020b0c010000", 21, "other");
    g.priced(
        "Batch, Λ = 5, spilled",
        spilled_batch(),
        "050105010000ac020204",
        33,
        "other",
    );
    g.priced(
        "EntryAssign, spilled",
        spilled_assign(),
        "0500010102020303040405010a0300000001010202020400010300",
        91,
        "other",
    );
    g.priced(
        "EntryAssign",
        assign(),
        "01000205070201000403040902070801",
        66,
        "other",
    );
    g.priced(
        "SkeapMsg::BatchUp",
        SkeapMsg::BatchUp {
            cycle: 6,
            batch: batch(),
        },
        "00060202020b0c010000",
        28,
        "skeap.batch_up",
    );
    g.priced(
        "SkeapMsg::Down",
        SkeapMsg::Down {
            cycle: 6,
            assigns: vec![assign()],
        },
        "01060101000205070201000403040902070801",
        76,
        "skeap.down",
    );
    g.priced(
        "SkeapMsg::Dht",
        SkeapMsg::Dht(route(put())),
        "02000000000000d83f05028201010081010702c0843d044d",
        172,
        "dht.req",
    );
    g.priced(
        "SkeapMsg::Resp",
        SkeapMsg::Resp(get_ok()),
        "03014d0702c0843d",
        65,
        "dht.resp",
    );
}

/// Λ = 5 priorities: one more than `BatchEntry::ins` holds inline.
fn spilled_batch() -> Batch {
    let b = Batch {
        n_prios: 5,
        entries: vec![BatchEntry {
            ins: [1, 0, 0, 300, 2].into_iter().collect(),
            del: 4,
        }],
    };
    assert!(b.entries[0].ins.spilled());
    b
}

/// Five insert intervals and three delete segments: both past the inline
/// capacity of their `SmallVec`.
fn spilled_assign() -> EntryAssign {
    let a = EntryAssign {
        ins: (0..5).map(|p| interval(p, p + 1)).collect(),
        ins_seq: interval(1, 10),
        del: Segments {
            parts: (0..3).map(|p| (p, interval(p, 2 * p))).collect(),
        },
        bottom: 0,
        del_seq: interval(1, 3),
        lifo: false,
    };
    assert!(a.ins.spilled() && a.del.parts.spilled());
    a
}

#[test]
fn kselect_alphabet_is_pinned() {
    let mut g = Golden::default();
    g.priced(
        "Cmd::P1Bounds",
        Cmd::P1Bounds { k: 4, n: 1000 },
        "0004e807",
        27,
        "other",
    );
    g.priced(
        "Cmd::P1Prune",
        Cmd::P1Prune {
            pmin: key(),
            pmax: key(),
        },
        "0103ac0203ac02",
        47,
        "other",
    );
    g.priced(
        "Cmd::Sample",
        Cmd::Sample {
            epoch: 1,
            prune: Some((key(), key())),
            prob: 0.25,
        },
        "02010103ac0203ac02000000000000d03f",
        115,
        "other",
    );
    g.priced(
        "Cmd::Positions",
        Cmd::Positions {
            epoch: 1,
            lo: 2,
            hi: 3,
            first: 4,
            last: 5,
            n_prime: 600,
        },
        "030102030405d804",
        43,
        "other",
    );
    g.priced(
        "Cmd::WindowCount",
        Cmd::WindowCount {
            cl: key(),
            cr: key(),
        },
        "0403ac0203ac02",
        47,
        "other",
    );
    g.priced(
        "Cmd::Announce",
        Cmd::Announce { result: key() },
        "0503ac02",
        25,
        "other",
    );
    g.priced(
        "Rsp::MinMax",
        Rsp::MinMax {
            pmin: key(),
            pmax: key(),
        },
        "0003ac0203ac02",
        46,
        "other",
    );
    g.priced(
        "Rsp::Counts",
        Rsp::Counts {
            below: 3,
            above: 400,
        },
        "01039003",
        24,
        "other",
    );
    g.priced(
        "Rsp::SampleCount",
        Rsp::SampleCount { count: 17 },
        "0211",
        11,
        "other",
    );
    g.priced(
        "Rsp::Hits",
        Rsp::Hits {
            lo: Some(key()),
            hi: None,
        },
        "030103ac0200",
        26,
        "other",
    );
    g.priced("Place", place(), "030903ac0202e807", 56, "other");
    g.priced("Split", split(), "030403ac0205060102", 48, "other");
    g.priced(
        "Split, ROOT_PARENT",
        Split {
            parent_copy: ROOT_PARENT,
            ..split()
        },
        "030403ac02050601ffffffffffffffffff01",
        170,
        "other",
    );
    g.priced("Compare", compare(), "03040103ac0206", 40, "other");
    g.priced(
        "KMsg::Down",
        KMsg::Down(Cmd::Announce { result: key() }),
        "000503ac02",
        28,
        "kselect.down",
    );
    g.priced(
        "KMsg::Up",
        KMsg::Up(Rsp::SampleCount { count: 17 }),
        "010211",
        14,
        "kselect.up",
    );
    g.priced(
        "KMsg::Place",
        KMsg::Place(route(place())),
        "02000000000000d83f0502820101030903ac0202e807",
        146,
        "kselect.place",
    );
    g.priced(
        "KMsg::Split",
        KMsg::Split(HopMsg {
            at: virt(),
            walk_back: true,
            payload: split(),
        }),
        "03050201030403ac0205060102",
        59,
        "kselect.split",
    );
    g.priced(
        "KMsg::Compare",
        KMsg::Compare(route(compare())),
        "04000000000000d83f050282010103040103ac0206",
        130,
        "kselect.compare",
    );
    g.priced(
        "KMsg::CmpResult",
        KMsg::CmpResult {
            epoch: 1,
            cand: 2,
            copy: 3,
            smaller: 4,
            larger: 500,
        },
        "0501020304f403",
        36,
        "kselect.cmp_result",
    );
    g.priced(
        "KMsg::CopyAgg",
        KMsg::CopyAgg {
            epoch: 1,
            cand: 2,
            parent_copy: 3,
            smaller: 4,
            larger: 500,
        },
        "0601020304f403",
        36,
        "kselect.copy_agg",
    );
    g.priced(
        "KMsg::CopyAgg, ROOT_PARENT",
        KMsg::CopyAgg {
            epoch: 1,
            cand: 2,
            parent_copy: ROOT_PARENT,
            smaller: 4,
            larger: 500,
        },
        "060102ffffffffffffffffff0104f403",
        156,
        "kselect.copy_agg",
    );
    g.priced(
        "KMsg::Order",
        KMsg::Order {
            epoch: 1,
            key: key(),
            order: 9,
        },
        "070103ac0209",
        35,
        "kselect.order",
    );
}

#[test]
fn seap_alphabet_is_pinned() {
    let mut g = Golden::default();
    g.priced(
        "SeapMsg::Begin",
        SeapMsg::Begin { phase: 5 },
        "0005",
        9,
        "seap.begin",
    );
    g.priced(
        "SeapMsg::CountUp",
        SeapMsg::CountUp {
            phase: 5,
            count: 200,
        },
        "0105c801",
        24,
        "seap.count_up",
    );
    g.priced(
        "SeapMsg::StartInserts",
        SeapMsg::StartInserts {
            phase: 5,
            wit: interval(1, 3),
        },
        "02050103",
        17,
        "seap.start_inserts",
    );
    g.priced(
        "SeapMsg::CountBelow",
        SeapMsg::CountBelow {
            phase: 5,
            key_k: key(),
        },
        "030503ac02",
        31,
        "seap.count_below",
    );
    g.priced(
        "SeapMsg::StoreCountUp",
        SeapMsg::StoreCountUp { phase: 5, count: 8 },
        "040508",
        16,
        "seap.store_count_up",
    );
    g.priced(
        "SeapMsg::Assign",
        SeapMsg::Assign {
            phase: 5,
            key_k: Some(key()),
            store: interval(0, 2),
            del: interval(2, 3),
            wit: interval(3, 4),
        },
        "05050103ac02000202030304",
        54,
        "seap.assign",
    );
    g.priced(
        "SeapMsg::DoneUp",
        SeapMsg::DoneUp { phase: 5 },
        "0605",
        9,
        "seap.done_up",
    );
    g.priced(
        "SeapMsg::K",
        SeapMsg::K(KMsg::Up(Rsp::SampleCount { count: 17 })),
        "07010211",
        18,
        "kselect.up",
    );
    g.priced(
        "SeapMsg::Dht",
        SeapMsg::Dht(route(put())),
        "08000000000000d83f05028201010081010702c0843d044d",
        174,
        "dht.req",
    );
    g.priced(
        "SeapMsg::Resp",
        SeapMsg::Resp(DhtResp::PutAck { id: 77 }),
        "09004d",
        18,
        "dht.resp",
    );
}

#[test]
fn reliable_framing_is_pinned_over_every_alphabet() {
    let mut g = Golden::default();
    g.priced(
        "ReliableMsg<SkeapMsg>::Data",
        ReliableMsg::Data {
            seq: 300,
            msg: SkeapMsg::Resp(DhtResp::PutAck { id: 77 }),
        },
        "00ac0203004d",
        34,
        "dht.resp",
    );
    g.priced(
        "ReliableMsg<SkeapMsg>::Ack",
        ReliableMsg::<SkeapMsg>::Ack { seq: 300, cum: 299 },
        "01ac02ab02",
        35,
        "rel.ack",
    );
    g.priced(
        "ReliableMsg<SeapMsg>::Data",
        ReliableMsg::Data {
            seq: 300,
            msg: SeapMsg::Begin { phase: 5 },
        },
        "00ac020005",
        27,
        "seap.begin",
    );
    g.priced(
        "ReliableMsg<SeapMsg>::Ack",
        ReliableMsg::<SeapMsg>::Ack { seq: 300, cum: 299 },
        "01ac02ab02",
        35,
        "rel.ack",
    );
    g.priced(
        "ReliableMsg<KMsg>::Data",
        ReliableMsg::Data {
            seq: 300,
            msg: KMsg::Up(Rsp::Counts {
                below: 3,
                above: 400,
            }),
        },
        "00ac020101039003",
        45,
        "kselect.up",
    );
    g.priced(
        "ReliableMsg<KMsg>::Ack",
        ReliableMsg::<KMsg>::Ack { seq: 300, cum: 299 },
        "01ac02ab02",
        35,
        "rel.ack",
    );
}

#[test]
fn gossip_alphabet_is_pinned() {
    let mut g = Golden::default();
    g.priced("DigestEntry", digest(), "0302c801", 23, "other");
    g.priced(
        "NodeDelta",
        delta(),
        "010102002a010180808080802002",
        111,
        "other",
    );
    g.priced(
        "GossipMsg::Syn",
        GossipMsg::Syn {
            window: vec![digest()],
        },
        "00010302c801",
        28,
        "gossip.syn",
    );
    g.priced(
        "GossipMsg::SynAck",
        GossipMsg::SynAck {
            delta: vec![delta()],
            want: vec![digest()],
        },
        "0101010102002a010180808080802002010302c801",
        142,
        "gossip.synack",
    );
    g.priced(
        "GossipMsg::Ack",
        GossipMsg::Ack {
            delta: vec![delta()],
        },
        "0201010102002a010180808080802002",
        116,
        "gossip.ack",
    );
}

#[test]
fn handshake_control_plane_and_wal_are_pinned() {
    let mut g = Golden::default();
    g.pin("ProtoId::Skeap", ProtoId::Skeap, "00");
    g.pin("ProtoId::Seap", ProtoId::Seap, "01");
    g.pin("ProtoId::KSelect", ProtoId::KSelect, "02");
    g.pin("ProtoId::Ctl", ProtoId::Ctl, "03");
    g.pin(
        "Hello",
        Hello {
            version: WIRE_VERSION,
            proto: ProtoId::Seap,
            cluster: 0xfeed,
            sender: u64::MAX,
        },
        "445051570101edfd03ffffffffffffffffff01",
    );
    g.pin("CtlReq::Status", CtlReq::Status, "00");
    g.pin(
        "CtlReq::Enqueue",
        CtlReq::Enqueue {
            prio: 3,
            payload: 7001,
        },
        "0103d936",
    );
    g.pin("CtlReq::Dequeue", CtlReq::Dequeue, "02");
    g.pin("CtlReq::Dump", CtlReq::Dump, "03");
    g.pin("CtlReq::Metrics", CtlReq::Metrics, "04");
    g.pin("CtlReq::Shutdown", CtlReq::Shutdown, "05");
    g.pin(
        "StatusInfo",
        status(),
        "0205736b6561700a07000103ac02b960020103",
    );
    g.pin(
        "CtlResp::Status",
        CtlResp::Status(status()),
        "000205736b6561700a07000103ac02b960020103",
    );
    g.pin(
        "CtlResp::Issued",
        CtlResp::Issued { node: 2, seq: 5 },
        "010205",
    );
    g.pin("CtlResp::Dumped", CtlResp::Dumped { records: 10 }, "020a");
    g.pin(
        "CtlResp::Metrics",
        CtlResp::Metrics("x 1\n".into()),
        "03047820310a",
    );
    g.pin(
        "CtlResp::Error",
        CtlResp::Error("nope".into()),
        "04046e6f7065",
    );
    g.pin("CtlResp::Bye", CtlResp::Bye, "05");
    g.pin(
        "CtlOpKind::Insert",
        CtlOpKind::Insert {
            prio: 3,
            payload: 7001,
        },
        "0003d936",
    );
    g.pin("CtlOpKind::DeleteMin", CtlOpKind::DeleteMin, "01");
    g.pin(
        "WalEntry::Activate",
        WalEntry::Activate { now: 1000 },
        "00e807",
    );
    g.pin(
        "WalEntry::Deliver",
        WalEntry::Deliver {
            now: 1000,
            from: 3,
            frame: RawBytes(vec![1, 2, 3]),
        },
        "01e8070303010203",
    );
    g.pin(
        "WalEntry::CtlOp",
        WalEntry::CtlOp {
            now: 1000,
            op: CtlOpKind::DeleteMin,
        },
        "02e80701",
    );
}
