//! Bitstream (.bit) file model.
//!
//! §IV-B: "The configuration information of hardware tasks is stored in
//! memory as bitstream files (.bit)." A simulated bitstream is a real byte
//! blob in simulated DDR: a small header identifying the IP core it
//! configures (kind + parameter), the set of PRRs it was implemented for,
//! and a payload whose size determines the PCAP download latency — partial
//! bitstream size is a property of the *region*, so bigger PRRs mean bigger
//! files and longer reconfigurations, as in the authors' companion paper.

use mnv_hal::{HalError, HalResult};

/// Magic marking a Mini-NOVA simulated bitstream.
pub const BITSTREAM_MAGIC: u32 = 0x4D4E_5642; // "MNVB"

/// Header length in bytes (magic, kind, payload CRC, compat, payload_len,
/// header checksum).
pub const HEADER_LEN: usize = 24;

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time. `CRC_TABLES[0][b]` is
/// the CRC register after shifting byte `b` through it; each further table
/// shifts one more zero byte, so `CRC_TABLES[k][b]` is byte `b`'s
/// contribution from `k` bytes further back in an 8-byte word.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), eight bytes per step over
/// `CRC_TABLES`. Every PCAP transfer verifies a payload of up to 750 KB
/// with it, and every guest's reconfiguration is one transfer, so it runs
/// on the simulator's hot path under multi-guest load.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The IP core a bitstream configures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// Radix-2 FFT over `1 << log2_points` complex samples.
    Fft {
        /// log2 of the transform size (8..=13 for 256..8192).
        log2_points: u8,
    },
    /// QAM mapper with 2/4/6 bits per symbol for orders 4/16/64.
    Qam {
        /// Bits per symbol (2, 4 or 6).
        bits_per_symbol: u8,
    },
    /// Direct-form FIR filter with the given number of taps (extension
    /// core used by ablation and capacity tests).
    Fir {
        /// Number of filter taps.
        taps: u8,
    },
}

impl CoreKind {
    /// Dense numeric encoding for headers and the CORE_KIND register.
    pub fn encode(self) -> u32 {
        match self {
            CoreKind::Fft { log2_points } => 0x0100 | log2_points as u32,
            CoreKind::Qam { bits_per_symbol } => 0x0200 | bits_per_symbol as u32,
            CoreKind::Fir { taps } => 0x0300 | taps as u32,
        }
    }

    /// Decode from the numeric form.
    pub fn decode(v: u32) -> Option<Self> {
        let param = (v & 0xFF) as u8;
        match v & 0xFF00 {
            0x0100 if (8..=13).contains(&param) => Some(CoreKind::Fft { log2_points: param }),
            0x0200 if matches!(param, 2 | 4 | 6) => Some(CoreKind::Qam {
                bits_per_symbol: param,
            }),
            0x0300 if param > 0 => Some(CoreKind::Fir { taps: param }),
            _ => None,
        }
    }

    /// Human-readable name matching the paper's task naming (FFT-256,
    /// QAM-16, …).
    pub fn name(self) -> String {
        match self {
            CoreKind::Fft { log2_points } => format!("FFT-{}", 1u32 << log2_points),
            CoreKind::Qam { bits_per_symbol } => format!("QAM-{}", 1u32 << bits_per_symbol),
            CoreKind::Fir { taps } => format!("FIR-{taps}"),
        }
    }

    /// Fabric resources the core occupies (drives PRR compatibility: "Since
    /// FFT blocks are quite large, only PRR1 and PRR2 are large enough to
    /// contain the FFT tasks" — §V-B).
    pub fn resources(self) -> crate::fabric::PrrResources {
        use crate::fabric::PrrResources;
        match self {
            CoreKind::Fft { log2_points } => PrrResources {
                slices: 1200 + 300 * (log2_points as u32 - 8),
                bram: 8 + 4 * (log2_points as u32 - 8),
                dsp: 24,
            },
            CoreKind::Qam { .. } => PrrResources {
                slices: 400,
                bram: 2,
                dsp: 4,
            },
            CoreKind::Fir { taps } => PrrResources {
                slices: 300 + 10 * taps as u32,
                bram: 2,
                dsp: taps as u32,
            },
        }
    }
}

/// A parsed (or to-be-encoded) bitstream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitstream {
    /// The core this bitstream configures.
    pub core: CoreKind,
    /// Bitmask of PRR ids this bitstream was implemented for.
    pub prr_compat: u32,
    /// Configuration payload length in bytes (drives PCAP latency).
    pub payload_len: u32,
    /// CRC-32 of the payload, verified by the PCAP on ingest so transfer
    /// corruption or in-memory damage cannot configure a region.
    pub payload_crc: u32,
}

impl Bitstream {
    /// Build a bitstream for `core` targeting the PRRs in `prr_ids`, with a
    /// payload sized for a region that fits the core (roughly 110 bytes of
    /// configuration per slice — calibrated to land partial bitstreams in
    /// the 75–750 KB range of the companion paper).
    pub fn for_core(core: CoreKind, prr_ids: &[u8]) -> Self {
        let mut mask = 0u32;
        for &id in prr_ids {
            mask |= 1 << id;
        }
        let payload_len = 110 * core.resources().slices;
        Bitstream {
            core,
            prr_compat: mask,
            payload_len,
            payload_crc: crc32(&payload_pattern(payload_len)),
        }
    }

    /// Total encoded length (header + payload).
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload_len as usize
    }

    /// True if this bitstream may be loaded into PRR `id`.
    pub fn compatible_with(&self, id: u8) -> bool {
        self.prr_compat & (1 << id) != 0
    }

    /// Encode to the on-DDR byte format. The payload is a deterministic
    /// pattern (cheap, and lets the PCAP model verify the payload CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_len());
        out.extend_from_slice(&BITSTREAM_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.core.encode().to_le_bytes());
        out.extend_from_slice(&self.payload_crc.to_le_bytes());
        out.extend_from_slice(&self.prr_compat.to_le_bytes());
        out.extend_from_slice(&self.payload_len.to_le_bytes());
        let crc = self.checksum();
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend(payload_pattern(self.payload_len));
        out
    }

    /// Parse a header from the first [`HEADER_LEN`] bytes.
    pub fn parse_header(bytes: &[u8]) -> HalResult<Bitstream> {
        if bytes.len() < HEADER_LEN {
            return Err(HalError::Invalid("bitstream header truncated"));
        }
        let word = |i: usize| u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().unwrap());
        if word(0) != BITSTREAM_MAGIC {
            return Err(HalError::Invalid("bad bitstream magic"));
        }
        let core =
            CoreKind::decode(word(1)).ok_or(HalError::Invalid("unknown core kind in bitstream"))?;
        let bs = Bitstream {
            core,
            prr_compat: word(3),
            payload_len: word(4),
            payload_crc: word(2),
        };
        if word(5) != bs.checksum() {
            return Err(HalError::Invalid("bitstream checksum mismatch"));
        }
        Ok(bs)
    }

    /// True when `payload` matches the CRC recorded in the header.
    pub fn verify_payload(&self, payload: &[u8]) -> bool {
        payload.len() == self.payload_len as usize && crc32(payload) == self.payload_crc
    }

    fn checksum(&self) -> u32 {
        self.core
            .encode()
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(self.prr_compat)
            .wrapping_add(self.payload_len.rotate_left(13))
            .wrapping_add(self.payload_crc.rotate_left(7))
    }
}

/// The deterministic configuration payload for a bitstream of `len` bytes.
fn payload_pattern(len: u32) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
        .collect()
}

/// The paper's evaluation task sets (§V-B): FFT from 256 to 8192 points and
/// QAM with constellation sizes 4, 16 and 64.
pub fn paper_task_set() -> Vec<CoreKind> {
    let mut v: Vec<CoreKind> = (8..=13).map(|l| CoreKind::Fft { log2_points: l }).collect();
    v.extend([2u8, 4, 6].map(|b| CoreKind::Qam { bits_per_symbol: b }));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bitwise CRC-32, one bit per step: the reference [`crc32`] must
    /// equal.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn slice_by_8_matches_the_bitwise_reference() {
        // Every length through eight full words plus each remainder.
        let data: Vec<u8> = (0..64u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for len in 0..=64 {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
        // Random buffers at unaligned offsets and odd lengths.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let buf: Vec<u8> = (0..4096).map(|_| next() as u8).collect();
        for _ in 0..200 {
            let off = (next() % 64) as usize;
            let len = (next() % 4000) as usize;
            let s = &buf[off..off + len];
            assert_eq!(crc32(s), crc32_bitwise(s), "offset {off} len {len}");
        }
    }

    #[test]
    fn core_kind_encoding_round_trips() {
        for k in paper_task_set() {
            assert_eq!(CoreKind::decode(k.encode()), Some(k));
        }
        assert_eq!(
            CoreKind::decode(CoreKind::Fir { taps: 16 }.encode()),
            Some(CoreKind::Fir { taps: 16 })
        );
        assert_eq!(CoreKind::decode(0x0107), None, "FFT-128 not in range");
        assert_eq!(CoreKind::decode(0x0203), None, "QAM-8 not supported");
        assert_eq!(CoreKind::decode(0x9999), None);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(CoreKind::Fft { log2_points: 8 }.name(), "FFT-256");
        assert_eq!(CoreKind::Fft { log2_points: 13 }.name(), "FFT-8192");
        assert_eq!(CoreKind::Qam { bits_per_symbol: 6 }.name(), "QAM-64");
    }

    #[test]
    fn fft_needs_more_resources_than_qam() {
        let fft = CoreKind::Fft { log2_points: 13 }.resources();
        let qam = CoreKind::Qam { bits_per_symbol: 4 }.resources();
        assert!(fft.slices > 2 * qam.slices);
        assert!(fft.bram > qam.bram);
    }

    #[test]
    fn encode_parse_round_trip() {
        let bs = Bitstream::for_core(CoreKind::Fft { log2_points: 10 }, &[1, 2]);
        let bytes = bs.encode();
        assert_eq!(bytes.len(), bs.total_len());
        let parsed = Bitstream::parse_header(&bytes).unwrap();
        assert_eq!(parsed, bs);
        assert!(bs.compatible_with(1));
        assert!(bs.compatible_with(2));
        assert!(!bs.compatible_with(0));
    }

    #[test]
    fn corrupted_header_rejected() {
        let bs = Bitstream::for_core(CoreKind::Qam { bits_per_symbol: 2 }, &[0]);
        let mut bytes = bs.encode();
        bytes[0] ^= 0xFF;
        assert!(Bitstream::parse_header(&bytes).is_err());
        let mut bytes2 = bs.encode();
        bytes2[12] ^= 0x01; // compat field -> checksum mismatch
        assert!(Bitstream::parse_header(&bytes2).is_err());
        assert!(Bitstream::parse_header(&bytes2[..10]).is_err());
    }

    #[test]
    fn payload_crc_verifies_and_rejects_damage() {
        let bs = Bitstream::for_core(CoreKind::Qam { bits_per_symbol: 4 }, &[0, 1]);
        let bytes = bs.encode();
        let payload = &bytes[HEADER_LEN..];
        assert!(bs.verify_payload(payload), "pristine payload must verify");
        // A single damaged byte anywhere in the payload must be caught.
        let mut damaged = payload.to_vec();
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x40;
        assert!(!bs.verify_payload(&damaged));
        // So must truncation.
        assert!(!bs.verify_payload(&payload[..payload.len() - 1]));
    }

    #[test]
    fn payload_crc_is_covered_by_header_checksum() {
        // Flipping the recorded CRC (word 2) must invalidate the header,
        // so an attacker cannot pair a damaged payload with a fixed-up CRC
        // without also forging the checksum.
        let bs = Bitstream::for_core(CoreKind::Qam { bits_per_symbol: 2 }, &[0]);
        let mut bytes = bs.encode();
        bytes[8] ^= 0x01;
        assert!(Bitstream::parse_header(&bytes).is_err());
    }

    #[test]
    fn crc32_known_vector() {
        // The IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn bitstream_sizes_in_companion_paper_range() {
        // 75 KB – 750 KB across the paper's task set.
        for k in paper_task_set() {
            let bs = Bitstream::for_core(k, &[0]);
            let kb = bs.total_len() / 1024;
            assert!((40..=800).contains(&kb), "{}: {kb} KB", k.name());
        }
        // FFT-8192 must be several times larger than QAM.
        let big = Bitstream::for_core(CoreKind::Fft { log2_points: 13 }, &[0]).total_len();
        let small = Bitstream::for_core(CoreKind::Qam { bits_per_symbol: 2 }, &[0]).total_len();
        assert!(big > 4 * small);
    }
}
