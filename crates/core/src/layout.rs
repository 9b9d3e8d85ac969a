//! MRAM layout shared between host and kernels.
//!
//! Every DPU's MRAM bank is laid out as:
//!
//! ```text
//! 0                 64                64 + q_bytes          ...
//! +-----------------+------------------+---------------------+
//! | KernelHeader    | Q-table          | transition records  |
//! | (64 bytes)      | (S*A 32-bit LE)  | (16 bytes each)     |
//! +-----------------+------------------+---------------------+
//! ```
//!
//! The header carries everything the kernel needs: chunk length, table
//! shape, the episode schedule of this launch, sampling strategy, seeds
//! and (scaled) hyper-parameters. All fields are little-endian `u32`.

use std::ops::Range;

use swiftrl_env::{ExperienceDataset, Transition};
use swiftrl_rl::policy::epsilon_threshold;
use swiftrl_rl::sampling::SamplingStrategy;

use crate::config::{DataType, RunConfig, WorkloadSpec};

/// Magic word identifying a SwiftRL header ("SWFT").
pub const HEADER_MAGIC: u32 = 0x5357_4654;
/// Size of the serialized header in bytes (fixed, 8-byte aligned).
pub const HEADER_BYTES: usize = 64;
/// MRAM offset of the Q-table.
pub const Q_TABLE_OFFSET: usize = HEADER_BYTES;

// Static MRAM bank map in the `MRAM_<X>_OFFSET`/`_BYTES` convention the
// analyzer proves non-overlapping and within the 64-MB bank (K010). The
// runtime layout ([`KernelHeader::transitions_offset`]) packs the
// transition store right after the *actual* Q-table; these constants pin
// the worst case (Taxi-v3's 12 000-byte table) and give the transition
// store everything that remains.

/// The header occupies the first 64 bytes of every bank.
pub const MRAM_HEADER_OFFSET: usize = 0;
/// See [`HEADER_BYTES`].
pub const MRAM_HEADER_BYTES: usize = HEADER_BYTES;
/// The Q-table slab follows the header.
pub const MRAM_Q_TABLE_OFFSET: usize = Q_TABLE_OFFSET;
/// Worst-case Q-table: Taxi-v3, 500 states × 6 actions × 4 bytes.
pub const MRAM_Q_TABLE_BYTES: usize = 12_000;
/// Transition records fill the rest of the bank.
pub const MRAM_TRANSITIONS_OFFSET: usize = MRAM_Q_TABLE_OFFSET + MRAM_Q_TABLE_BYTES;
/// Everything after header + worst-case Q-table, up to the 64-MB bank.
pub const MRAM_TRANSITIONS_BYTES: usize =
    swiftrl_pim::config::MRAM_BANK_CAPACITY_BYTES - MRAM_TRANSITIONS_OFFSET;

/// Sampling-strategy discriminants in the header.
pub mod sampling_kind {
    /// Sequential walk.
    pub const SEQ: u32 = 0;
    /// Stride-based walk.
    pub const STR: u32 = 1;
    /// Random draws.
    pub const RAN: u32 = 2;
}

/// Why a serialized [`KernelHeader`] failed to decode.
///
/// Plain data (no owned strings): [`KernelHeader::from_bytes`] runs on the
/// kernel's launch path, where heap allocation is forbidden (K002). The
/// host formats the message when it surfaces the fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// The MRAM block was shorter than [`HEADER_BYTES`].
    TooShort {
        /// Actual length of the block handed to the decoder.
        len: usize,
    },
    /// The first word did not match [`HEADER_MAGIC`].
    BadMagic {
        /// The word actually read.
        word: u32,
    },
}

impl core::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::TooShort { len } => write!(f, "header block too short: {len} bytes"),
            Self::BadMagic { word } => write!(f, "bad header magic {word:#010x}"),
        }
    }
}

impl std::error::Error for HeaderError {}

/// The per-DPU kernel parameter block.
///
/// `alpha`/`gamma`/`epsilon_threshold`/`scale` are interpreted per data
/// type: FP32 kernels read `alpha`/`gamma` as float bits; INT32 kernels
/// read them as scaled integers. `epsilon_threshold` is the integer draw
/// threshold of the ε-greedy rule in both cases (see
/// `swiftrl_rl::policy::epsilon_threshold`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelHeader {
    /// Number of transitions in this DPU's chunk.
    pub n_transitions: u32,
    /// Number of states (Q-table rows).
    pub num_states: u32,
    /// Number of actions (Q-table columns).
    pub num_actions: u32,
    /// Episodes to run in this launch (τ per synchronization round).
    pub episodes: u32,
    /// Index of the first episode of this launch (for per-episode seeds).
    pub episode_base: u32,
    /// Sampling strategy discriminant (see [`sampling_kind`]).
    pub sampling: u32,
    /// Stride for STR sampling (ignored otherwise).
    pub stride: u32,
    /// Base seed of this DPU (already decorrelated per DPU).
    pub seed: u32,
    /// Learning rate: f32 bits (FP32) or scaled integer (INT32).
    pub alpha: u32,
    /// Discount factor: f32 bits (FP32) or scaled integer (INT32).
    pub gamma: u32,
    /// ε-greedy integer draw threshold (SARSA only).
    pub epsilon_threshold: u32,
    /// Fixed-point scale factor (INT32 only).
    pub scale: u32,
}

impl KernelHeader {
    /// The header the host stages on DPU `dpu` for a chunk of
    /// `chunk_len` transitions of `dataset` under `spec` and `cfg`:
    /// `episodes` episodes per launch from episode 0 (`cfg.tau` for the
    /// synchronized runner, the whole budget for independent agents),
    /// with the hyper-parameters encoded for `spec`'s data type.
    pub fn for_chunk(
        spec: WorkloadSpec,
        cfg: &RunConfig,
        dataset: &ExperienceDataset,
        dpu: usize,
        chunk_len: usize,
        episodes: u32,
    ) -> Self {
        let scale = cfg.scale();
        let (alpha, gamma) = match spec.dtype {
            DataType::Fp32 => (cfg.alpha.to_bits(), cfg.gamma.to_bits()),
            DataType::Int32 => (
                scale.to_fixed(cfg.alpha) as u32,
                scale.to_fixed(cfg.gamma) as u32,
            ),
        };
        let (sampling, stride) = match spec.sampling {
            SamplingStrategy::Sequential => (sampling_kind::SEQ, 0),
            SamplingStrategy::Stride(k) => (sampling_kind::STR, k as u32),
            SamplingStrategy::Random => (sampling_kind::RAN, 0),
        };
        Self {
            n_transitions: chunk_len as u32,
            num_states: dataset.num_states() as u32,
            num_actions: dataset.num_actions() as u32,
            episodes,
            episode_base: 0,
            sampling,
            stride,
            seed: dpu_seed(cfg.seed, dpu),
            alpha,
            gamma,
            epsilon_threshold: epsilon_threshold(cfg.epsilon).min(u32::MAX as u64) as u32,
            scale: scale.factor() as u32,
        }
    }

    /// Serializes into a caller-provided 64-byte block without heap
    /// allocation — the form kernels use (K002: no free work in kernel
    /// bodies). Trailing pad bytes are zeroed.
    pub fn encode_into(&self, out: &mut [u8; HEADER_BYTES]) {
        let words = [
            HEADER_MAGIC,
            self.n_transitions,
            self.num_states,
            self.num_actions,
            self.episodes,
            self.episode_base,
            self.sampling,
            self.stride,
            self.seed,
            self.alpha,
            self.gamma,
            self.epsilon_threshold,
            self.scale,
        ];
        *out = [0u8; HEADER_BYTES];
        for (i, w) in words.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Serializes to the 64-byte MRAM block (host-side convenience).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = [0u8; HEADER_BYTES];
        self.encode_into(&mut out);
        out.to_vec()
    }

    /// Deserializes from the 64-byte MRAM block.
    ///
    /// # Errors
    ///
    /// Returns a [`HeaderError`] if the block is too short or the magic
    /// word is wrong (kernel launched on an unloaded DPU). The error is
    /// plain data — this function is kernel-reachable, so nothing on its
    /// path allocates; callers format the message on their (exempt) fault
    /// path.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, HeaderError> {
        if bytes.len() < HEADER_BYTES {
            return Err(HeaderError::TooShort { len: bytes.len() });
        }
        let word = |i: usize| {
            u32::from_le_bytes([bytes[4 * i], bytes[4 * i + 1], bytes[4 * i + 2], bytes[4 * i + 3]])
        };
        if word(0) != HEADER_MAGIC {
            return Err(HeaderError::BadMagic { word: word(0) });
        }
        Ok(Self {
            n_transitions: word(1),
            num_states: word(2),
            num_actions: word(3),
            episodes: word(4),
            episode_base: word(5),
            sampling: word(6),
            stride: word(7),
            seed: word(8),
            alpha: word(9),
            gamma: word(10),
            epsilon_threshold: word(11),
            scale: word(12),
        })
    }

    /// Bytes occupied by the Q-table in this layout.
    pub fn q_table_bytes(&self) -> usize {
        self.num_states as usize * self.num_actions as usize * 4
    }

    /// MRAM offset of the first transition record.
    pub fn transitions_offset(&self) -> usize {
        // Keep 8-byte alignment for the DMA engine.
        let q_end = Q_TABLE_OFFSET + self.q_table_bytes();
        q_end.div_ceil(8) * 8
    }

    /// MRAM offset of transition record `i`.
    pub fn transition_offset(&self, i: usize) -> usize {
        self.transitions_offset() + i * Transition::RECORD_BYTES
    }
}

/// Encodes records `range` of `dataset` as transition records in
/// `spec`'s data type (INT32 rewards in `cfg`'s fixed-point scale): the
/// bytes the host stages after the Q-table.
pub fn encode_chunk(
    spec: WorkloadSpec,
    cfg: &RunConfig,
    dataset: &ExperienceDataset,
    range: Range<usize>,
) -> Vec<u8> {
    match spec.dtype {
        DataType::Fp32 => dataset.encode_range_fp32(range),
        DataType::Int32 => dataset.encode_range_int32(range, cfg.scale().factor()),
    }
}

/// Per-episode sampling seed, identical on host and kernel so SEQ/STR/RAN
/// orders can be replayed bit-exactly.
#[inline]
pub fn episode_seed(base_seed: u32, episode: u32) -> u32 {
    base_seed.wrapping_add(episode).wrapping_mul(0x9E37_79B9)
}

/// Per-DPU decorrelated seed.
#[inline]
pub fn dpu_seed(run_seed: u32, dpu: usize) -> u32 {
    run_seed
        .wrapping_add(dpu as u32)
        .wrapping_mul(0x85EB_CA6B)
        .rotate_left(13)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> KernelHeader {
        KernelHeader {
            n_transitions: 1_000,
            num_states: 16,
            num_actions: 4,
            episodes: 50,
            episode_base: 100,
            sampling: sampling_kind::STR,
            stride: 4,
            seed: 42,
            alpha: 0.1f32.to_bits(),
            gamma: 0.95f32.to_bits(),
            epsilon_threshold: 0,
            scale: 10_000,
        }
    }

    #[test]
    fn round_trips() {
        let h = header();
        let bytes = h.to_bytes();
        assert_eq!(bytes.len(), HEADER_BYTES);
        assert_eq!(KernelHeader::from_bytes(&bytes).unwrap(), h);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = header().to_bytes();
        bytes[0] = 0;
        assert!(KernelHeader::from_bytes(&bytes).is_err());
        assert!(KernelHeader::from_bytes(&bytes[..10]).is_err());
    }

    #[test]
    fn layout_offsets_are_aligned() {
        let h = header();
        assert_eq!(h.q_table_bytes(), 16 * 4 * 4);
        assert_eq!(h.transitions_offset() % 8, 0);
        assert_eq!(h.transitions_offset(), 64 + 256);
        assert_eq!(h.transition_offset(2), 64 + 256 + 32);
        // Taxi-shaped table: 500*6*4 = 12000, already 8-aligned.
        let mut taxi = h;
        taxi.num_states = 500;
        taxi.num_actions = 6;
        assert_eq!(taxi.transitions_offset(), 64 + 12_000);
        // Odd-sized table gets padded up.
        let mut odd = h;
        odd.num_states = 3;
        odd.num_actions = 3;
        assert_eq!(odd.transitions_offset() % 8, 0);
        assert!(odd.transitions_offset() >= 64 + 36);
    }

    #[test]
    fn seeds_are_decorrelated() {
        let a = dpu_seed(7, 0);
        let b = dpu_seed(7, 1);
        assert_ne!(a, b);
        assert_ne!(episode_seed(a, 0), episode_seed(a, 1));
    }
}
