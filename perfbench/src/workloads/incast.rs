//! `incast`: 256 ranks as cooperative rank-tasks. In each round ranks
//! 1..255 send 16 tagged messages each to rank 0 and enter a `barrier`;
//! rank 0 then drains its 4080-deep queue — exact `(src, tag)` receives in
//! reverse order, then `(ANY_SOURCE, tag)` and `(ANY_SOURCE, ANY_TAG)`
//! receives for a seed-chosen subset — and a second barrier closes the
//! round. The only workload with deep matching, wildcards, and more
//! channels than the mailbox directory holds.

use std::time::Instant;

use rankmpi_core::{Communicator, ThreadCtx, Universe, ANY_SOURCE, ANY_TAG};

use super::{assemble, build, Config, Rep, ThreadOut, SETUP};
use crate::counters;
use crate::spans::{span, Name};
use crate::stamp::{self, Check, Stamp};

const PER_SENDER: usize = 16;
const MSG_BYTES: usize = 64;
/// One message in this many is left for a wildcard receive.
const WILD_ONE_IN: u64 = 32;

struct Size {
    ranks: usize,
    rounds: usize,
}

fn size(cfg: &Config) -> Size {
    if cfg.smoke {
        Size {
            ranks: 32,
            rounds: 2,
        }
    } else {
        Size {
            ranks: 256,
            rounds: 20,
        }
    }
}

/// How rank 0 receives message `(src, tag)` of `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Recv {
    Exact,
    AnySource,
    AnyAny,
}

fn recv_kind(key: u64, round: usize, src: usize, tag: usize) -> Recv {
    let h = stamp::mix(key ^ ((round as u64) << 40) ^ ((src as u64) << 8) ^ tag as u64);
    match (h % WILD_ONE_IN, (h >> 32) & 1) {
        (0, 0) => Recv::AnySource,
        (0, _) => Recv::AnyAny,
        _ => Recv::Exact,
    }
}

fn want(src: usize, round: usize, tag: usize) -> Stamp {
    Stamp {
        src: src as u32,
        tid: 0,
        step: round as u64,
        seq: (round * PER_SENDER + tag) as u64,
    }
}

/// Rank 0's drain of one round. Exact receives go first, newest sender and
/// tag first; `(ANY_SOURCE, tag)` receives next, which always find a match
/// because at least as many tag-`tag` messages are left; `(ANY, ANY)` last.
fn drain(
    th: &mut ThreadCtx,
    world: &Communicator,
    key: u64,
    ranks: usize,
    round: usize,
    check: &mut Check,
) -> u64 {
    let mut seen = vec![false; ranks * PER_SENDER];
    let mut delivered = 0;
    let mut order: Vec<(i64, i64, Name)> = Vec::with_capacity((ranks - 1) * PER_SENDER);
    let mut any_source = Vec::new();
    let mut any_any = Vec::new();
    for src in (1..ranks).rev() {
        for tag in (0..PER_SENDER).rev() {
            match recv_kind(key, round, src, tag) {
                Recv::Exact => order.push((src as i64, tag as i64, Name::Pt2ptRecvExact)),
                Recv::AnySource => any_source.push((ANY_SOURCE, tag as i64, Name::Pt2ptRecvWild)),
                Recv::AnyAny => any_any.push((ANY_SOURCE, ANY_TAG, Name::Pt2ptRecvWild)),
            }
        }
    }
    order.extend(any_source);
    order.extend(any_any);
    for (src, tag, name) in order {
        let r = span(name, 0, 0, round, || world.recv(th, src, tag));
        let Some((st, data)) = check.result("recv", r) else {
            continue;
        };
        let tag_ok = tag == ANY_TAG || st.tag == tag;
        let (s, t) = (st.source, st.tag as usize);
        let fresh = tag_ok
            && (src == ANY_SOURCE || s as i64 == src)
            && s < ranks
            && t < PER_SENDER
            && !std::mem::replace(&mut seen[s * PER_SENDER + t], true);
        let got = stamp::read(&data, key).filter(|_| fresh && data.len() == MSG_BYTES);
        let want = want(s, round, t);
        delivered += (got == Some(want)) as u64;
        check.delivery(got, want);
    }
    delivered
}

fn rank_loop(
    th: &mut ThreadCtx,
    world: &Communicator,
    cfg: &Config,
    key: u64,
    sz: &Size,
) -> ThreadOut {
    let me = world.rank();
    let mut check = Check::default();
    let r = span(Name::CollBarrier, me, 0, SETUP, || world.barrier(th));
    check.result("barrier", r);
    let ready = super::now();
    let mut lat_ns = Vec::with_capacity(sz.rounds);
    let mut delivered = 0;
    let mut buf = vec![0u8; MSG_BYTES];
    for round in 0..sz.rounds {
        let t = Instant::now();
        span(Name::IncastRound, me, 0, round, || {
            if me != 0 {
                for tag in 0..PER_SENDER {
                    stamp::write(&mut buf, key, want(me, round, tag));
                    if cfg.corrupt_one && me == 1 && round == 0 && tag == 3 {
                        buf[MSG_BYTES / 2] ^= 0x08;
                    }
                    let r = span(Name::Pt2ptSend, me, 0, round, || {
                        world.send(th, 0, tag as i64, &buf)
                    });
                    check.result("send", r);
                }
            }
            let r = span(Name::CollBarrier, me, 0, round, || world.barrier(th));
            check.result("barrier", r);
            if me == 0 {
                delivered += drain(th, world, key, sz.ranks, round, &mut check);
            }
            let r = span(Name::CollBarrier, me, 0, round, || world.barrier(th));
            check.result("barrier", r);
        });
        lat_ns.push(t.elapsed().as_nanos() as u64);
    }
    let end = super::now();
    crate::spans::flush();
    ThreadOut {
        ready,
        end,
        lat_ns,
        check,
        delivered,
        vtime_ns: th.clock.now().as_ns(),
    }
}

pub fn rep(cfg: &Config, rep: usize) -> Rep {
    let sz = size(cfg);
    let key = cfg.key(rep);
    let scope = counters::begin();
    let started = Instant::now();
    let u = build(Universe::builder().nodes(sz.ranks).launch(cfg.tasks()));
    let launched = Instant::now();
    let outs = u.run(|env| {
        let mut th = env.single_thread();
        rank_loop(&mut th, &env.world(), cfg, key, &sz)
    });
    let mut counters = scope.end();
    counters.add_universe(&u);
    assemble(started, launched, outs, sz.rounds as u64, counters)
}
