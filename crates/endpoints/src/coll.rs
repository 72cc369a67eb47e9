//! One-step collectives over endpoints (Lessons 18 and 19).
//!
//! Every endpoint participates in the collective as a rank of the endpoints
//! communicator; the library's tree (`rankmpi_core::coll`'s, driven through
//! an endpoint [`CollPort`]) spans *all* endpoints, so the intranode
//! portion (endpoints on the same process/node, connected by the cheap
//! shared-memory path) and the internode portion are both handled inside the
//! call — the user never writes a manual intranode reduction, unlike the
//! existing-mechanisms design of Fig. 7.
//!
//! The trade-off the paper calls out in Lesson 19 is visible here: for
//! rooted/replicated results (allreduce, bcast) every endpoint of a process
//! receives its own copy of the result buffer, where a process-rank collective
//! would hold one. [`duplication_report`] quantifies exactly that overhead.

use std::sync::atomic::Ordering;

use bytes::Bytes;
use rankmpi_core::coll::{self, coll_tag, CollPort};
use rankmpi_core::comm::COLL_CTX_BIT;
use rankmpi_core::request::Request;
use rankmpi_core::{ReduceOp, Result, ThreadCtx};

use crate::endpoint::Endpoint;
use crate::topology::EndpointTopology;

/// One endpoint's side of one collective episode: endpoint ranks on the
/// endpoints communicator's collective context.
struct EpPort<'a> {
    ep: &'a Endpoint,
    seq: u64,
}

impl CollPort for EpPort<'_> {
    fn rank(&self) -> usize {
        self.ep.rank()
    }

    fn size(&self) -> usize {
        self.ep.size()
    }

    fn send(&self, th: &mut ThreadCtx, phase: u32, dst: usize, data: &[u8]) -> Result<Request> {
        let ctx = self.ep.topology().ctx_id | COLL_CTX_BIT;
        self.ep
            .isend_ctx(th, ctx, dst, coll_tag(self.seq, phase), data)
    }

    fn recv(&self, th: &mut ThreadCtx, phase: u32, src: usize) -> Result<Bytes> {
        let ctx = self.ep.topology().ctx_id | COLL_CTX_BIT;
        let req = self
            .ep
            .irecv_ctx(th, ctx, src as i64, coll_tag(self.seq, phase))?;
        Ok(req.wait_outcome(&mut th.clock)?.1)
    }
}

impl Endpoint {
    fn port(&self) -> EpPort<'_> {
        let seq = self.coll_seq.fetch_add(1, Ordering::Relaxed);
        EpPort { ep: self, seq }
    }

    /// Dissemination barrier across all endpoints.
    pub fn ep_barrier(&self, th: &mut ThreadCtx) -> Result<()> {
        coll::barrier(th, &self.port())
    }

    /// Binomial broadcast from endpoint `root_ep` across all endpoints.
    pub fn ep_bcast(
        &self,
        th: &mut ThreadCtx,
        root_ep: usize,
        data: Option<&[u8]>,
    ) -> Result<Bytes> {
        coll::bcast(th, &self.port(), 0, root_ep, data)
    }

    /// Binomial reduction to endpoint `root_ep`.
    pub fn ep_reduce(
        &self,
        th: &mut ThreadCtx,
        root_ep: usize,
        contribution: &[f64],
        op: ReduceOp,
    ) -> Result<Option<Vec<f64>>> {
        coll::reduce(th, &self.port(), 0, root_ep, contribution, op)
    }

    /// One-step allreduce across all endpoints: every endpoint contributes
    /// and every endpoint receives the full result (Lesson 19: one result
    /// buffer *per endpoint*, not per process).
    pub fn ep_allreduce(
        &self,
        th: &mut ThreadCtx,
        contribution: &[f64],
        op: ReduceOp,
    ) -> Result<Vec<f64>> {
        coll::allreduce(th, &self.port(), contribution, op)
    }

    /// Allgather across all endpoints (equal-size contributions).
    pub fn ep_allgather(&self, th: &mut ThreadCtx, data: &[u8]) -> Result<Vec<Bytes>> {
        coll::allgather(th, &self.port(), data)
    }
}

/// Result-buffer duplication of a replicated-result endpoint collective
/// (Lesson 19).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicationReport {
    /// Bytes a process-rank collective would hold per process (one buffer).
    pub per_process_bytes: usize,
    /// Bytes the endpoint collective delivers per process (one per endpoint).
    pub endpoint_bytes_per_process: Vec<usize>,
    /// Total duplicated bytes across the job (endpoint copies minus the one
    /// copy per process that is actually needed).
    pub duplicated_bytes: usize,
}

/// Quantify Lesson 19's duplication for a replicated result of `result_bytes`
/// on `topo`.
pub fn duplication_report(topo: &EndpointTopology, result_bytes: usize) -> DuplicationReport {
    let endpoint_bytes_per_process: Vec<usize> =
        topo.counts.iter().map(|c| c * result_bytes).collect();
    let duplicated_bytes = topo
        .counts
        .iter()
        .map(|c| c.saturating_sub(1) * result_bytes)
        .sum();
    DuplicationReport {
        per_process_bytes: result_bytes,
        endpoint_bytes_per_process,
        duplicated_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm_create_endpoints;
    use rankmpi_core::{Info, Universe};

    /// Endpoints per process, by process: 6 endpoints on 2 processes, and
    /// the non-power-of-two totals 3 (one process) and 5 (uneven counts).
    const LAYOUTS: [&[usize]; 3] = [&[3, 3], &[3], &[2, 3]];

    /// Run `f` once per endpoint of `layout`, each on its own thread; results
    /// come back per process in endpoint order.
    fn run_eps<R: Send>(
        layout: &[usize],
        f: impl Fn(&Endpoint, &mut ThreadCtx) -> R + Sync,
    ) -> Vec<Vec<R>> {
        let max = layout.iter().copied().max().unwrap();
        let u = Universe::builder()
            .nodes(layout.len())
            .threads_per_proc(max)
            .build();
        u.run(|env| {
            let world = env.world();
            let mut th0 = env.single_thread();
            let n = layout[env.rank()];
            let eps = comm_create_endpoints(&world, &mut th0, n, &Info::new()).unwrap();
            env.parallel_n(n, |th| f(&eps[th.tid()], th))
        })
    }

    #[test]
    fn one_step_allreduce_across_all_endpoints() {
        // All endpoints of all processes reduce in ONE call — the library
        // handles internode + intranode (Lesson 18).
        for layout in LAYOUTS {
            let p: usize = layout.iter().sum();
            let out = run_eps(layout, |ep, th| {
                let all = ep
                    .ep_allreduce(th, &[ep.rank() as f64], ReduceOp::Sum)
                    .unwrap();
                let root = ep
                    .ep_reduce(th, p - 1, &[ep.rank() as f64, 1.0], ReduceOp::Max)
                    .unwrap();
                (ep.rank(), all, root)
            });
            // Every endpoint holds its own copy of the sum of ep ranks; only
            // the last endpoint gets the rooted reduction.
            let sum = (p * (p - 1) / 2) as f64;
            for (rank, all, root) in out.into_iter().flatten() {
                assert_eq!(all, vec![sum], "layout {layout:?}");
                let want = (rank == p - 1).then(|| vec![(p - 1) as f64, 1.0]);
                assert_eq!(root, want, "layout {layout:?}, ep {rank}");
            }
        }
    }

    #[test]
    fn ep_barrier_joins_all_endpoint_clocks() {
        for layout in LAYOUTS {
            let p: usize = layout.iter().sum();
            let times = run_eps(layout, |ep, th| {
                // Stagger by global endpoint rank.
                th.compute(rankmpi_vtime::Nanos(ep.rank() as u64 * 5_000));
                ep.ep_barrier(th).unwrap();
                th.clock.now()
            });
            for t in times.iter().flatten() {
                assert!(
                    t.as_ns() >= (p as u64 - 1) * 5_000,
                    "no endpoint leaves before the slowest entered ({layout:?})"
                );
            }
        }
    }

    #[test]
    fn ep_bcast_reaches_every_endpoint() {
        for layout in LAYOUTS {
            let out = run_eps(layout, |ep, th| {
                let data = (ep.rank() == 1).then_some(&b"hello-eps"[..]);
                ep.ep_bcast(th, 1, data).unwrap().to_vec()
            });
            for b in out.iter().flatten() {
                assert_eq!(&b[..], b"hello-eps", "layout {layout:?}");
            }
        }
    }

    #[test]
    fn ep_allgather_orders_by_endpoint_rank() {
        for layout in LAYOUTS {
            let p: usize = layout.iter().sum();
            let out = run_eps(layout, |ep, th| {
                let all = ep.ep_allgather(th, &[ep.rank() as u8 + 100]).unwrap();
                all.iter().map(|b| b[0]).collect::<Vec<u8>>()
            });
            let want: Vec<u8> = (0..p as u8).map(|r| r + 100).collect();
            for v in out.iter().flatten() {
                assert_eq!(v, &want, "layout {layout:?}");
            }
        }
    }

    #[test]
    fn duplication_report_counts_extra_copies() {
        let topo = EndpointTopology {
            ctx_id: 1,
            map: vec![(0, 1), (0, 2), (0, 3), (1, 1), (1, 2)],
            counts: vec![3, 2],
            offsets: vec![0, 3],
            parent_ctx: 0,
        };
        let rep = duplication_report(&topo, 1024);
        assert_eq!(rep.per_process_bytes, 1024);
        assert_eq!(rep.endpoint_bytes_per_process, vec![3072, 2048]);
        // (3-1) + (2-1) = 3 extra copies.
        assert_eq!(rep.duplicated_bytes, 3 * 1024);
    }
}
