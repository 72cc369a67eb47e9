//! Process CPU time, the steal-independent cost of a run.
//!
//! On a virtual machine whose host is oversubscribed, the hypervisor takes
//! ("steals") CPU time from the guest at intervals. Stolen time lengthens
//! every wall-clock interval, but the guest kernel does not charge it to the
//! running process, so CPU time per message stays put while wall time per
//! message moves with the neighbours' load.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, ns.
pub fn process_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark builds for), and the clock
    // id is one Linux always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    #[test]
    fn process_cpu_time_advances_with_work() {
        let t0 = super::process_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(super::process_ns() > t0);
    }
}
