//! Daemon configuration: CLI flag parsing and the cluster fingerprint.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::frame::ProtoId;
use crate::transport::Addr;

/// Everything a `dpq-node` process needs to know, parsed from flags.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Which protocol this cluster runs.
    pub proto: ProtoId,
    /// Cluster size.
    pub n: usize,
    /// This node's id, `0 ≤ me < n`.
    pub me: u64,
    /// Deployment seed (topology, configs, candidate sets).
    pub seed: u64,
    /// Skeap's priority-universe size.
    pub n_prios: usize,
    /// KSelect: total candidates m.
    pub m: u64,
    /// KSelect: the rank to select.
    pub k: u64,
    /// KSelect: priority universe for candidate generation.
    pub prio_space: u64,
    /// Where this node accepts peer connections.
    pub listen: Addr,
    /// Peer id → where to dial it.
    pub peers: BTreeMap<u64, Addr>,
    /// Where this node accepts control connections.
    pub ctl: Addr,
    /// Reliable-layer retransmission timeout, in ticks.
    pub rto_ticks: u64,
    /// Wall-clock milliseconds per activation tick.
    pub tick_ms: u64,
    /// Write-ahead log path (crash-recover); `None` disables logging.
    pub wal: Option<PathBuf>,
    /// JSONL trace path written on `Dump`; `None` disables dumping.
    pub trace: Option<PathBuf>,
}

/// Fingerprint of the parameters every member of a cluster must agree on,
/// carried in each handshake so two clusters on one host cannot
/// cross-connect. FNV-1a over the identity-defining fields.
pub fn cluster_fingerprint(proto: ProtoId, n: usize, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(match proto {
        ProtoId::Skeap => 1,
        ProtoId::Seap => 2,
        ProtoId::KSelect => 3,
        ProtoId::Ctl => 4,
    });
    eat(n as u64);
    eat(seed);
    h
}

impl NodeConfig {
    /// This deployment's fingerprint.
    pub fn fingerprint(&self) -> u64 {
        cluster_fingerprint(self.proto, self.n, self.seed)
    }

    /// Parse the `dpq-node` flag vector (everything after argv[0]).
    pub fn parse_args(args: &[String]) -> Result<NodeConfig, String> {
        let mut proto = None;
        let mut n = None;
        let mut me = None;
        let mut seed = 0u64;
        let mut n_prios = 4usize;
        let mut m = 64u64;
        let mut k = 1u64;
        let mut prio_space = 1 << 20;
        let mut listen = None;
        let mut peers = BTreeMap::new();
        let mut ctl = None;
        let mut rto_ticks = 64u64;
        let mut tick_ms = 2u64;
        let mut wal = None;
        let mut trace = None;

        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut val = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("flag {flag} needs a value"))
            };
            match flag.as_str() {
                "--proto" => proto = Some(ProtoId::parse(&val()?)?),
                "--n" => n = Some(val()?.parse::<usize>().map_err(|e| e.to_string())?),
                "--id" => me = Some(val()?.parse::<u64>().map_err(|e| e.to_string())?),
                "--seed" => {
                    seed = val()?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?
                }
                "--n-prios" => {
                    n_prios = val()?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?
                }
                "--m" => {
                    m = val()?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?
                }
                "--k" => {
                    k = val()?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?
                }
                "--prio-space" => {
                    prio_space = val()?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?
                }
                "--listen" => listen = Some(Addr::parse(&val()?)?),
                "--ctl" => ctl = Some(Addr::parse(&val()?)?),
                "--peer" => {
                    let v = val()?;
                    let (id, addr) = v
                        .split_once('=')
                        .ok_or_else(|| format!("--peer {v:?} must be <id>=<addr>"))?;
                    let id: u64 = id
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?;
                    peers.insert(id, Addr::parse(addr)?);
                }
                "--rto" => {
                    rto_ticks = val()?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?
                }
                "--tick-ms" => {
                    tick_ms = val()?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?
                }
                "--wal" => wal = Some(PathBuf::from(val()?)),
                "--trace" => trace = Some(PathBuf::from(val()?)),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }

        let proto = proto.ok_or("--proto is required")?;
        let n = n.ok_or("--n is required")?;
        let me = me.ok_or("--id is required")?;
        if me as usize >= n {
            return Err(format!("--id {me} out of range for --n {n}"));
        }
        if rto_ticks == 0 {
            return Err("--rto must be positive".into());
        }
        Ok(NodeConfig {
            proto,
            n,
            me,
            seed,
            n_prios,
            m,
            k,
            prio_space,
            listen: listen.ok_or("--listen is required")?,
            peers,
            ctl: ctl.ok_or("--ctl is required")?,
            rto_ticks,
            tick_ms,
            wal,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn full_flag_vector_parses() {
        let cfg = NodeConfig::parse_args(&args(
            "--proto skeap --n 3 --id 1 --seed 42 --n-prios 4 \
             --listen uds:/tmp/n1.sock --ctl uds:/tmp/n1.ctl \
             --peer 0=uds:/tmp/n0.sock --peer 2=tcp:127.0.0.1:7002 \
             --rto 32 --tick-ms 1 --wal /tmp/n1.wal --trace /tmp/n1.jsonl",
        ))
        .unwrap();
        assert_eq!(cfg.proto, ProtoId::Skeap);
        assert_eq!(cfg.me, 1);
        assert_eq!(cfg.peers.len(), 2);
        assert_eq!(cfg.peers[&2], Addr::Tcp("127.0.0.1:7002".into()));
        assert_eq!(cfg.rto_ticks, 32);
        assert!(cfg.wal.is_some());
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(NodeConfig::parse_args(&args("--proto skeap --n 3")).is_err());
        assert!(NodeConfig::parse_args(&args(
            "--proto skeap --n 3 --id 5 --listen uds:/a --ctl uds:/b"
        ))
        .is_err());
        assert!(NodeConfig::parse_args(&args(
            "--proto nope --n 3 --id 0 --listen uds:/a --ctl uds:/b"
        ))
        .is_err());
        assert!(NodeConfig::parse_args(&args("--wat")).is_err());
        let base = "--proto skeap --n 3 --id 0 --listen uds:/a --ctl uds:/b";
        let err = NodeConfig::parse_args(&args(&format!("{base} --gossip"))).unwrap_err();
        assert_eq!(err, "unknown flag \"--gossip\"");
    }

    #[test]
    fn fingerprints_separate_clusters() {
        let a = cluster_fingerprint(ProtoId::Skeap, 5, 1);
        assert_eq!(a, cluster_fingerprint(ProtoId::Skeap, 5, 1));
        assert_ne!(a, cluster_fingerprint(ProtoId::Skeap, 5, 2));
        assert_ne!(a, cluster_fingerprint(ProtoId::Seap, 5, 1));
        assert_ne!(a, cluster_fingerprint(ProtoId::Skeap, 6, 1));
    }
}
