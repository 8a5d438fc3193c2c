//! `dpq-ctl` — control-plane client for a running `dpq-node`.
//!
//! ```text
//! dpq-ctl --ctl uds:/tmp/n0.ctl --proto skeap --n 5 --seed 42 <command>
//!
//! commands:
//!   status                    print the node's progress snapshot
//!   enqueue <prio> <payload>  issue Insert(prio, payload)
//!   dequeue                   issue DeleteMin()
//!   wait [secs]               poll until all issued ops complete (default 30s)
//!   dump                      write the node's JSONL trace to its --trace path
//!   metrics                   print the node's Prometheus text exposition
//!   shutdown                  ask the daemon to exit cleanly
//! ```
//!
//! `--proto/--n/--seed` must match the daemon's flags: they form the cluster
//! fingerprint checked in the handshake, so a client cannot accidentally
//! drive a different deployment on the same host. An unknown flag or
//! command, or a malformed argument, exits 2 before anything is dialed.

use std::time::{Duration, Instant};

use dpq_net::{cluster_fingerprint, Addr, CtlClient, CtlReq, CtlResp, ProtoId};

fn fail(msg: &str) -> ! {
    eprintln!("dpq-ctl: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctl = None;
    let mut proto = None;
    let mut n = None;
    let mut seed = 0u64;
    let mut rest = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| fail(&format!("flag {arg} needs a value")))
        };
        match arg.as_str() {
            "--ctl" => ctl = Some(Addr::parse(val()).unwrap_or_else(|e| fail(&e))),
            "--proto" => proto = Some(ProtoId::parse(val()).unwrap_or_else(|e| fail(&e))),
            "--n" => {
                n = Some(
                    val()
                        .parse::<usize>()
                        .unwrap_or_else(|e| fail(&e.to_string())),
                )
            }
            "--seed" => seed = val().parse().unwrap_or_else(|e| fail(&format!("{e}"))),
            flag if flag.starts_with("--") => fail(&format!("unknown flag {flag:?}")),
            _ => rest.push(arg.clone()),
        }
    }
    let ctl = ctl.unwrap_or_else(|| fail("--ctl is required"));
    let proto = proto.unwrap_or_else(|| fail("--proto is required"));
    let n = n.unwrap_or_else(|| fail("--n is required"));
    let fingerprint = cluster_fingerprint(proto, n, seed);

    // The request to send and, for `wait`, how long to keep polling it.
    let (req, wait_secs) = match rest.first().map(String::as_str).unwrap_or("status") {
        "status" => (CtlReq::Status, None),
        "enqueue" => {
            if rest.len() != 3 {
                fail("usage: enqueue <prio> <payload>");
            }
            let prio = rest[1].parse().unwrap_or_else(|e| fail(&format!("{e}")));
            let payload = rest[2].parse().unwrap_or_else(|e| fail(&format!("{e}")));
            (CtlReq::Enqueue { prio, payload }, None)
        }
        "dequeue" => (CtlReq::Dequeue, None),
        "wait" => {
            let secs: u64 = rest
                .get(1)
                .map(|s| s.parse().unwrap_or_else(|e| fail(&format!("{e}"))))
                .unwrap_or(30);
            (CtlReq::Status, Some(secs))
        }
        "dump" => (CtlReq::Dump, None),
        "metrics" => (CtlReq::Metrics, None),
        "shutdown" => (CtlReq::Shutdown, None),
        other => fail(&format!("unknown command {other:?}")),
    };

    let mut client = CtlClient::connect_retry(&ctl, fingerprint, Duration::from_secs(5))
        .unwrap_or_else(|e| fail(&format!("connecting to {ctl}: {e}")));
    let mut send = |req: &CtlReq| {
        client
            .request(req)
            .unwrap_or_else(|e| fail(&format!("request failed: {e}")))
    };

    let resp = match wait_secs {
        None => send(&req),
        Some(secs) => {
            let deadline = Instant::now() + Duration::from_secs(secs);
            loop {
                let resp = send(&req);
                match &resp {
                    CtlResp::Status(s) if s.all_complete => break resp,
                    CtlResp::Status(_) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    CtlResp::Status(_) => fail(&format!("not complete after {secs}s")),
                    _ => break resp,
                }
            }
        }
    };

    match resp {
        CtlResp::Status(s) => {
            println!(
                "node {} proto {} issued {} completed {} all_complete {} \
                 result {} ticks {} retransmits {} dup_suppressed {} unacked {}",
                s.node,
                s.proto,
                s.issued,
                s.completed,
                s.all_complete,
                s.result
                    .map_or("-".to_string(), |k| format!("{}:{}", k.prio.0, k.elem.0)),
                s.ticks,
                s.retransmits,
                s.dup_suppressed,
                s.unacked
            );
        }
        CtlResp::Issued { node, seq } => println!("issued {node}:{seq}"),
        CtlResp::Dumped { records } => println!("dumped {records} records"),
        CtlResp::Metrics(text) => print!("{text}"),
        CtlResp::Bye => println!("bye"),
        CtlResp::Error(why) => {
            eprintln!("dpq-ctl: daemon error: {why}");
            std::process::exit(1);
        }
    }
}
