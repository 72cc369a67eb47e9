//! `halo1024`: 256 processes × 4 threads on a 16×16 periodic torus, as
//! cooperative rank-tasks. Each thread owns a communicator `dup`ed from
//! world, on its own VCI (the paper's logically parallel design), and talks
//! only to the same thread of its four neighbours. A step posts four
//! `irecv`s and one `isend_multi` of four 512-byte faces, then `wait_all`.

use std::time::Instant;

use rankmpi_core::request::wait_all;
use rankmpi_core::{Communicator, Request, ThreadCtx, Universe};

use super::{assemble, build, Config, Rep, ThreadOut, SETUP};
use crate::counters;
use crate::spans::{span, Name};
use crate::stamp::{self, Check, Stamp};

const FACE_BYTES: usize = 512;
const THREADS: usize = 4;

struct Size {
    side: usize,
    steps: usize,
}

fn size(cfg: &Config) -> Size {
    if cfg.smoke {
        Size { side: 4, steps: 5 }
    } else {
        Size {
            side: 16,
            steps: 40,
        }
    }
}

/// Neighbours of `rank` on a `side`×`side` torus: north, south, east, west.
fn neighbours(rank: usize, side: usize) -> [usize; 4] {
    let (x, y) = (rank % side, rank / side);
    [
        ((y + side - 1) % side) * side + x,
        ((y + 1) % side) * side + x,
        y * side + (x + 1) % side,
        y * side + (x + side - 1) % side,
    ]
}

/// The direction opposite `d` (north↔south, east↔west).
fn opposite(d: usize) -> usize {
    d ^ 1
}

/// One thread's exchange loop. A message sent towards direction `d` carries
/// tag `d`, so the face tagged `d` arrives from the opposite neighbour.
fn thread_loop(
    th: &mut ThreadCtx,
    comm: &Communicator,
    cfg: &Config,
    key: u64,
    sz: &Size,
) -> ThreadOut {
    let (rank, tid) = (comm.rank(), th.tid());
    let nbr = neighbours(rank, sz.side);
    let mut check = Check::default();
    let r = span(Name::CollBarrier, rank, tid, SETUP, || comm.barrier(th));
    check.result("barrier", r);
    let ready = super::now();
    let mut faces = vec![vec![0u8; FACE_BYTES]; 4];
    let mut lat_ns = Vec::with_capacity(sz.steps);
    let mut delivered = 0;
    'steps: for step in 0..sz.steps {
        let t = Instant::now();
        let ok = span(Name::HaloStep, rank, tid, step, || {
            let mut reqs: Vec<Request> = Vec::with_capacity(8);
            for d in 0..4 {
                let src = nbr[opposite(d)] as i64;
                let r = span(Name::Pt2ptIrecv, rank, tid, step, || {
                    comm.irecv(th, src, d as i64)
                });
                let Some(req) = check.result("irecv", r) else {
                    return false;
                };
                reqs.push(req);
            }
            for (d, face) in faces.iter_mut().enumerate() {
                let s = Stamp {
                    src: rank as u32,
                    tid: tid as u32,
                    step: step as u64,
                    seq: step as u64,
                };
                stamp::write(face, key, s);
                if cfg.corrupt_one && rank == 1 && tid == 0 && step == 1 && d == 0 {
                    face[FACE_BYTES - 1] ^= 0x01;
                }
            }
            let msgs: Vec<(usize, i64, &[u8])> = (0..4)
                .map(|d| (nbr[d], d as i64, faces[d].as_slice()))
                .collect();
            let r = span(Name::Pt2ptIsendMulti, rank, tid, step, || {
                comm.isend_multi(th, &msgs)
            });
            let Some(sends) = check.result("isend_multi", r) else {
                return false;
            };
            reqs.extend(sends);
            let done = span(Name::RequestWaitAll, rank, tid, step, || {
                wait_all(&mut th.clock, &reqs)
            });
            for (d, (st, data)) in done.iter().take(4).enumerate() {
                let src = nbr[opposite(d)];
                let want = Stamp {
                    src: src as u32,
                    tid: tid as u32,
                    step: step as u64,
                    seq: step as u64,
                };
                let got = stamp::read(data, key)
                    .filter(|_| st.source == src && st.tag == d as i64 && data.len() == FACE_BYTES);
                delivered += (got == Some(want)) as u64;
                check.delivery(got, want);
            }
            true
        });
        lat_ns.push(t.elapsed().as_nanos() as u64);
        if !ok {
            break 'steps;
        }
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
    // World keeps VCI 0; each per-thread communicator gets its own VCI.
    let u = build(
        Universe::builder()
            .nodes(sz.side * sz.side)
            .threads_per_proc(THREADS)
            .num_vcis(THREADS + 1)
            .launch(cfg.tasks()),
    );
    let launched = Instant::now();
    let outs: Vec<ThreadOut> = u
        .run(|env| {
            let world = env.world();
            let mut setup = env.single_thread();
            let comms: Vec<Communicator> = (0..THREADS)
                .map(|_| {
                    world
                        .dup(&mut setup)
                        .expect("dup a per-thread communicator")
                })
                .collect();
            drop(setup);
            env.parallel(|th| thread_loop(th, &comms[th.tid()], cfg, key, &sz))
        })
        .into_iter()
        .flatten()
        .collect();
    let mut counters = scope.end();
    counters.add_universe(&u);
    let items = outs.iter().map(|o| o.lat_ns.len() as u64).sum();
    assemble(started, launched, outs, items, counters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_neighbours_are_mutual() {
        for side in [4, 16] {
            for r in 0..side * side {
                for (d, &n) in neighbours(r, side).iter().enumerate() {
                    assert_eq!(neighbours(n, side)[opposite(d)], r);
                }
            }
        }
    }
}
