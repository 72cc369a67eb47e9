//! Payload stamps and delivery accounting.
//!
//! Every payload carries `(src, tid, step, seq)`. Payloads of at least
//! [`HDR`] bytes hold the four fields plus a check word derived from them and
//! the run's key, and the body repeats that word, so any flipped byte is
//! caught. Eight-byte payloads pack the fields into one word masked with the
//! key. The receiver compares the decoded stamp with what it expects next on
//! that channel, which catches missing, duplicate, reordered and misrouted
//! messages as well as corrupt ones.

/// Bytes of the stamp header in a full-size payload.
pub const HDR: usize = 32;

/// Identity of one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    pub src: u32,
    pub tid: u32,
    pub step: u64,
    pub seq: u64,
}

/// SplitMix64 finalizer: a cheap, well-mixed hash of one word.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn check_word(key: u64, s: &Stamp) -> u64 {
    mix(key ^ mix(((s.src as u64) << 32) | s.tid as u64) ^ mix(s.step).rotate_left(17) ^ s.seq)
}

/// Write `s` into `buf` (`buf.len() >= HDR`).
pub fn write(buf: &mut [u8], key: u64, s: Stamp) {
    let w = check_word(key, &s);
    buf[0..4].copy_from_slice(&s.src.to_le_bytes());
    buf[4..8].copy_from_slice(&s.tid.to_le_bytes());
    buf[8..16].copy_from_slice(&s.step.to_le_bytes());
    buf[16..24].copy_from_slice(&s.seq.to_le_bytes());
    buf[24..32].copy_from_slice(&w.to_le_bytes());
    let wb = w.to_le_bytes();
    for (i, b) in buf[HDR..].iter_mut().enumerate() {
        *b = wb[i % 8];
    }
}

/// Decode and verify a full-size payload; `None` if it is corrupt.
pub fn read(buf: &[u8], key: u64) -> Option<Stamp> {
    if buf.len() < HDR {
        return None;
    }
    let u32_at = |i: usize| u32::from_le_bytes(buf[i..i + 4].try_into().expect("4 bytes"));
    let u64_at = |i: usize| u64::from_le_bytes(buf[i..i + 8].try_into().expect("8 bytes"));
    let s = Stamp {
        src: u32_at(0),
        tid: u32_at(4),
        step: u64_at(8),
        seq: u64_at(16),
    };
    let w = u64_at(24);
    if w != check_word(key, &s) {
        return None;
    }
    let wb = w.to_le_bytes();
    buf[HDR..]
        .iter()
        .enumerate()
        .all(|(i, &b)| b == wb[i % 8])
        .then_some(s)
}

fn mask8(key: u64) -> u64 {
    mix(key ^ 0x5EED_8B17)
}

/// Pack `s` into an eight-byte payload: 8 bits of source, 8 of thread, 48 of
/// sequence (the step is the sequence in a one-message-per-step loop).
pub fn write8(key: u64, s: Stamp) -> [u8; 8] {
    let w =
        ((s.src as u64 & 0xFF) << 56) | ((s.tid as u64 & 0xFF) << 48) | (s.seq & ((1 << 48) - 1));
    (w ^ mask8(key)).to_le_bytes()
}

/// Unpack an eight-byte payload; `None` if its length is wrong.
pub fn read8(buf: &[u8], key: u64) -> Option<Stamp> {
    let w = u64::from_le_bytes(buf.try_into().ok()?) ^ mask8(key);
    let seq = w & ((1 << 48) - 1);
    Some(Stamp {
        src: (w >> 56) as u32,
        tid: ((w >> 48) & 0xFF) as u32,
        step: seq,
        seq,
    })
}

/// Operations attempted and failed by one thread (or one run).
#[derive(Debug, Clone, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Check {
    /// Count one operation; `err` describes it if it failed.
    pub fn op(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            self.first_failure.get_or_insert(e);
        }
    }

    /// Count one operation that returned a library result.
    pub fn result<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.op(None);
                Some(v)
            }
            Err(e) => {
                self.op(Some(format!("{what}: {e}")));
                None
            }
        }
    }

    /// Count one delivered message: `got` is its decoded stamp (`None` when
    /// the payload was corrupt), `want` what the channel must deliver next.
    pub fn delivery(&mut self, got: Option<Stamp>, want: Stamp) {
        let err = match got {
            None => Some(format!("corrupt payload, expected {want:?}")),
            Some(s) if s != want => Some(format!("delivered {s:?}, expected {want:?}")),
            Some(_) => None,
        };
        self.op(err);
    }

    pub fn merge(&mut self, other: &Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: Stamp = Stamp {
        src: 7,
        tid: 3,
        step: 41,
        seq: 12,
    };

    #[test]
    fn full_stamp_round_trips_and_catches_any_flipped_byte() {
        let mut buf = vec![0u8; 64];
        write(&mut buf, 99, S);
        assert_eq!(read(&buf, 99), Some(S));
        assert_eq!(read(&buf, 98), None, "another run's key");
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x10;
            assert_eq!(read(&bad, 99), None, "flip at byte {i}");
        }
    }

    #[test]
    fn eight_byte_stamp_round_trips() {
        let s = Stamp { step: 12, ..S };
        assert_eq!(read8(&write8(5, s), 5), Some(s));
        let mut bad = write8(5, s);
        bad[0] ^= 1;
        assert_ne!(read8(&bad, 5), Some(s));
    }

    #[test]
    fn check_counts_failures() {
        let mut c = Check::default();
        c.delivery(Some(S), S);
        c.delivery(None, S);
        c.delivery(Some(Stamp { seq: 13, ..S }), S);
        assert_eq!((c.attempted, c.failed), (3, 2));
        assert!(c.first_failure.unwrap().contains("corrupt"));
    }
}
