//! `pingpong`: two ranks, one thread each, on OS threads. Rank 0 sends an
//! 8-byte message with blocking `send` and waits for the echo with `irecv` +
//! `Request::wait`; rank 1 mirrors it. One channel, matching depth 0: the
//! round trip is bound by the wake-up of the blocked receiver.

use std::time::Instant;

use rankmpi_core::{Communicator, ThreadCtx, Universe};

use super::{assemble, build, Config, Rep, ThreadOut, SETUP};
use crate::counters;
use crate::spans::{span, Name};
use crate::stamp::{self, Check, Stamp};

fn round_trips(cfg: &Config) -> usize {
    if cfg.smoke {
        200
    } else {
        20_000
    }
}

/// Tag of round trip `i`, drawn from the seed.
fn tag(cfg: &Config, i: usize) -> i64 {
    (stamp::mix(cfg.seed ^ 0x7A6 ^ i as u64) % 1024) as i64
}

/// One rank's side of the loop.
struct Side<'a> {
    cfg: &'a Config,
    world: Communicator,
    key: u64,
    me: usize,
    peer: usize,
    check: Check,
    delivered: u64,
}

impl Side<'_> {
    fn send(&mut self, th: &mut ThreadCtx, i: usize) -> bool {
        let s = Stamp {
            src: self.me as u32,
            tid: 0,
            step: i as u64,
            seq: i as u64,
        };
        let mut msg = stamp::write8(self.key, s);
        if self.cfg.corrupt_one && self.me == 1 && i == round_trips(self.cfg) / 2 {
            msg[7] ^= 0x40;
        }
        let (world, peer, tag) = (&self.world, self.peer, tag(self.cfg, i));
        let r = span(Name::Pt2ptSend, self.me, 0, i, || {
            world.send(th, peer, tag, &msg)
        });
        self.check.result("send", r).is_some()
    }

    fn recv(&mut self, th: &mut ThreadCtx, i: usize) -> bool {
        let (world, peer, tag) = (&self.world, self.peer, tag(self.cfg, i));
        let r = span(Name::Pt2ptIrecv, self.me, 0, i, || {
            world.irecv(th, peer as i64, tag)
        });
        let Some(req) = self.check.result("irecv", r) else {
            return false;
        };
        let r = span(Name::RequestWait, self.me, 0, i, || {
            req.wait_outcome(&mut th.clock)
        });
        let Some((st, data)) = self.check.result("wait", r) else {
            return false;
        };
        let want = Stamp {
            src: peer as u32,
            tid: 0,
            step: i as u64,
            seq: i as u64,
        };
        let got = stamp::read8(&data, self.key).filter(|_| st.source == peer && st.tag == tag);
        self.delivered += (got == Some(want)) as u64;
        self.check.delivery(got, want);
        true
    }

    /// One round trip: rank 0 sends first, rank 1 echoes.
    fn iteration(&mut self, th: &mut ThreadCtx, i: usize) -> bool {
        let leads = self.me == 0;
        if leads && !self.send(th, i) {
            return false;
        }
        self.recv(th, i) && (leads || self.send(th, i))
    }
}

pub fn rep(cfg: &Config, rep: usize) -> Rep {
    let n = round_trips(cfg);
    let scope = counters::begin();
    let started = Instant::now();
    let u = build(Universe::builder().nodes(2));
    let launched = Instant::now();
    let outs = u.run(|env| {
        let mut th = env.single_thread();
        let me = env.rank();
        let mut side = Side {
            cfg,
            world: env.world(),
            key: cfg.key(rep),
            me,
            peer: 1 - me,
            check: Check::default(),
            delivered: 0,
        };
        let r = span(Name::CollBarrier, me, 0, SETUP, || {
            side.world.barrier(&mut th)
        });
        side.check.result("barrier", r);
        let ready = super::now();
        let mut lat_ns = Vec::with_capacity(n);
        for i in 0..n {
            let t = Instant::now();
            let ok = span(Name::PingpongIter, me, 0, i, || side.iteration(&mut th, i));
            if me == 0 {
                lat_ns.push(t.elapsed().as_nanos() as u64);
            }
            if !ok {
                break;
            }
        }
        let end = super::now();
        crate::spans::flush();
        ThreadOut {
            ready,
            end,
            lat_ns,
            check: side.check,
            delivered: side.delivered,
            vtime_ns: th.clock.now().as_ns(),
        }
    });
    let mut counters = scope.end();
    counters.add_universe(&u);
    assemble(started, launched, outs, n as u64, counters)
}
