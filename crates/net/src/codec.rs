//! The wire layout of every protocol type that crosses a socket.
//!
//! One `wire!` declaration per aggregate, in dependency order: core ids and
//! elements, the interval algebra, overlay routing envelopes, DHT requests,
//! then the three protocol alphabets (`SkeapMsg`, `SeapMsg`, `KMsg`), the
//! gossip sidecar's, and the reliable transport's framing. Each lists the
//! fields in wire order and each enum variant's one-byte tag; the macro
//! derives both directions from that one list. Unknown tags decode to
//! [`WireError::BadTag`](crate::WireError::BadTag), never a panic — the
//! property `tests/codec_props.rs` fuzzes, and `tests/wire_golden.rs` at the
//! repository root pins the exact bytes.

use crate::wire::wire;
use dpq_agg::{Interval, Segments};
use dpq_core::{ElemId, Element, Key, NodeId, Priority};
use dpq_dht::{DhtReq, DhtResp};
use dpq_gossip::{DigestEntry, GossipMsg, NodeDelta};
use dpq_overlay::routing::{HopMsg, RouteMsg};
use dpq_overlay::{VirtId, VirtKind};
use dpq_sim::ReliableMsg;
use kselect::msgs::{Compare, Place, Split};
use kselect::{Cmd, KMsg, Rsp};
use seap::SeapMsg;
use skeap::{Batch, BatchEntry, EntryAssign, SkeapMsg};

wire!(struct NodeId(v));
wire!(struct ElemId(v));
wire!(struct Priority(v));
wire!(struct Key { prio, elem });
wire!(struct Element { id, prio, payload });

wire!(struct Interval { lo, hi });
wire!(struct Segments { parts });

wire!(enum VirtKind { 0 => Left {}, 1 => Middle {}, 2 => Right {} });
wire!(struct VirtId { real, kind });
wire!(struct RouteMsg<M> { target, at, steps_done, walk_back, payload });
wire!(struct HopMsg<M> { at, walk_back, payload });

wire!(enum DhtReq {
    0 => Put { logical, elem, reply_to, id },
    1 => Get { logical, reply_to, id },
});
wire!(enum DhtResp { 0 => PutAck { id }, 1 => GetOk { id, elem } });

wire!(struct BatchEntry { ins, del });
wire!(struct Batch { n_prios, entries });
wire!(struct EntryAssign { ins, ins_seq, del, bottom, del_seq, lifo });
wire!(enum SkeapMsg {
    0 => BatchUp { cycle, batch },
    1 => Down { cycle, assigns },
    2 => Dht(m),
    3 => Resp(m),
});

wire!(enum Cmd {
    0 => P1Bounds { k, n },
    1 => P1Prune { pmin, pmax },
    2 => Sample { epoch, prune, prob },
    3 => Positions { epoch, lo, hi, first, last, n_prime },
    4 => WindowCount { cl, cr },
    5 => Announce { result },
});
wire!(enum Rsp {
    0 => MinMax { pmin, pmax },
    1 => Counts { below, above },
    2 => SampleCount { count },
    3 => Hits { lo, hi },
});
wire!(struct Place { epoch, pos, key, origin, n_prime });
wire!(struct Split { epoch, cand, key, a, b, parent, parent_copy });
wire!(struct Compare { epoch, cand, copy, key, back });
wire!(enum KMsg {
    0 => Down(c),
    1 => Up(rsp),
    2 => Place(m),
    3 => Split(m),
    4 => Compare(m),
    5 => CmpResult { epoch, cand, copy, smaller, larger },
    6 => CopyAgg { epoch, cand, parent_copy, smaller, larger },
    7 => Order { epoch, key, order },
});

wire!(enum SeapMsg {
    0 => Begin { phase },
    1 => CountUp { phase, count },
    2 => StartInserts { phase, wit },
    3 => CountBelow { phase, key_k },
    4 => StoreCountUp { phase, count },
    5 => Assign { phase, key_k, store, del, wit },
    6 => DoneUp { phase },
    7 => K(m),
    8 => Dht(m),
    9 => Resp(m),
});

wire!(struct DigestEntry { node, incarnation, max_version });
wire!(struct NodeDelta { node, incarnation, entries });
wire!(enum GossipMsg {
    0 => Syn { window },
    1 => SynAck { delta, want },
    2 => Ack { delta },
});

wire!(enum ReliableMsg<M> { 0 => Data { seq, msg }, 1 => Ack { seq, cum } });
