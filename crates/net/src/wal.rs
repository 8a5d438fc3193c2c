//! Event-sourced write-ahead log: crash-recover for an in-memory node.
//!
//! The protocol nodes keep all state in memory; a SIGKILL would normally
//! lose it. Instead of snapshotting opaque state, the runtime logs every
//! *input* — activations, delivered raw frames, control-plane operations —
//! to an append-only file **before** anything the input caused leaves the
//! process: its ctl reply and its outbound frames go out only **after** the
//! append. On restart the log replays through a fresh
//! [`NodeCore`](crate::node::NodeCore) — the same input handling, outputs
//! dropped — and the runtime resumes from the recorded tick. That ordering
//! makes the recovery argument purely a transport argument:
//!
//! * any frame a peer sent that we processed is in the log → replay
//!   re-derives its effects (and its acks are re-sent on demand, because
//!   peers retransmit anything unacked);
//! * any frame we *sent* but whose effects were not logged cannot exist:
//!   sends happen after the append, so a send implies its cause is durable;
//! * anything in flight at the kill is simply a lossy network from the
//!   `Reliable` layer's point of view — retransmit + dedup absorb it.
//!
//! A torn tail (killed mid-append) is detected by the length-prefixed
//! entry framing and truncated away; `write` without `fsync` is durable
//! against process kill (the bytes live in the page cache), which is the
//! fault model here — the fault matrix's crash-recover cell, not power loss.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::frame::{complete_frames, push_prefixed};
use crate::wire::{from_bytes, to_bytes, RawBytes};

/// One logged input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalEntry {
    /// The node was activated at logical tick `now`.
    Activate {
        /// Logical tick of the activation.
        now: u64,
    },
    /// A wire frame from `from` was accepted at tick `now`. The payload is
    /// the raw frame so replay decodes it exactly as the live path did.
    Deliver {
        /// Logical tick of the delivery.
        now: u64,
        /// Sending node.
        from: u64,
        /// The undecoded frame payload.
        frame: RawBytes,
    },
    /// A control-plane operation was issued at tick `now`.
    CtlOp {
        /// Logical tick of the issue.
        now: u64,
        /// What was issued.
        op: CtlOpKind,
    },
}

/// The loggable control-plane operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtlOpKind {
    /// `Insert(prio, payload)`.
    Insert {
        /// The element's priority.
        prio: u64,
        /// The element's payload.
        payload: u64,
    },
    /// `DeleteMin()`.
    DeleteMin,
}

dpq_core::wire!(codec enum CtlOpKind { 0 => Insert { prio, payload }, 1 => DeleteMin {} });

impl WalEntry {
    /// The logical tick this entry was logged at.
    pub fn now(&self) -> u64 {
        match self {
            WalEntry::Activate { now }
            | WalEntry::Deliver { now, .. }
            | WalEntry::CtlOp { now, .. } => *now,
        }
    }
}

dpq_core::wire!(codec enum WalEntry {
    0 => Activate { now },
    1 => Deliver { now, from, frame },
    2 => CtlOp { now, op },
});

/// An open write-ahead log, positioned for appending.
pub struct Wal {
    file: File,
}

impl Wal {
    /// Open (or create) the log at `path`, read back every complete entry,
    /// truncate any torn tail, and leave the file positioned for appends.
    pub fn open(path: &Path) -> std::io::Result<(Wal, Vec<WalEntry>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        // The walk stops at a torn tail (length written, payload
        // incomplete); a payload that does not decode stops it too.
        let mut entries = Vec::new();
        let mut pos = 0usize;
        for (payload, end) in complete_frames(&bytes) {
            match from_bytes::<WalEntry>(payload) {
                Ok(e) => entries.push(e),
                Err(_) => break,
            }
            pos = end;
        }
        file.set_len(pos as u64)?;
        file.seek(SeekFrom::Start(pos as u64))?;
        Ok((Wal { file }, entries))
    }

    /// Append one entry and push it to the OS (durable against process
    /// kill). Nothing the input caused leaves the process before this
    /// returns.
    pub fn append(&mut self, entry: &WalEntry) -> std::io::Result<()> {
        let mut rec = Vec::new();
        push_prefixed(&mut rec, &to_bytes(entry));
        self.file.write_all(&rec)?;
        self.file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dpq-wal-{}-{name}.bin", std::process::id()))
    }

    #[test]
    fn entries_survive_reopen() {
        let path = temp_wal("reopen");
        let _ = std::fs::remove_file(&path);
        let entries = vec![
            WalEntry::Activate { now: 1 },
            WalEntry::Deliver {
                now: 2,
                from: 4,
                frame: RawBytes(vec![1, 2, 3]),
            },
            WalEntry::CtlOp {
                now: 3,
                op: CtlOpKind::Insert {
                    prio: 1,
                    payload: 9,
                },
            },
            WalEntry::CtlOp {
                now: 4,
                op: CtlOpKind::DeleteMin,
            },
        ];
        {
            let (mut wal, read) = Wal::open(&path).unwrap();
            assert!(read.is_empty());
            for e in &entries {
                wal.append(e).unwrap();
            }
        }
        let (_, read) = Wal::open(&path).unwrap();
        assert_eq!(read, entries);
        assert_eq!(read.last().unwrap().now(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let path = temp_wal("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&WalEntry::Activate { now: 1 }).unwrap();
            wal.append(&WalEntry::Activate { now: 2 }).unwrap();
        }
        // Simulate a kill mid-append: chop bytes off the tail.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (mut wal, read) = Wal::open(&path).unwrap();
        assert_eq!(read, vec![WalEntry::Activate { now: 1 }]);
        wal.append(&WalEntry::Activate { now: 5 }).unwrap();
        let (_, read) = Wal::open(&path).unwrap();
        assert_eq!(
            read,
            vec![WalEntry::Activate { now: 1 }, WalEntry::Activate { now: 5 }]
        );
        let _ = std::fs::remove_file(&path);
    }
}
