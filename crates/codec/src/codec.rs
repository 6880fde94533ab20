//! The encoder/decoder pair.

use crate::bitstream::{read_varint, rle_decode, rle_encode, write_varint};

/// Block edge length in pixels.
const BLOCK: usize = 16;
/// Bitstream magic ("OD").
const MAGIC: u16 = 0x4f44;

/// Whether a frame was coded standalone or against the previous frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Intra frame: every block coded.
    Intra,
    /// Predicted frame: only blocks that changed against the reference.
    Predicted,
}

/// One encoded frame.
#[derive(Clone, Debug)]
pub struct EncodedFrame {
    /// Intra or predicted.
    pub kind: FrameKind,
    /// The compressed bitstream.
    pub data: Vec<u8>,
    /// Number of blocks actually coded (the encoder's work measure).
    pub blocks_coded: u32,
}

/// Errors produced by [`Decoder::decode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The bitstream header is malformed or has the wrong magic.
    BadHeader,
    /// Frame dimensions do not match the decoder.
    DimensionMismatch,
    /// A predicted frame arrived before any intra frame.
    MissingReference,
    /// The payload is truncated or inconsistent.
    Corrupt,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let msg = match self {
            DecodeError::BadHeader => "malformed bitstream header",
            DecodeError::DimensionMismatch => "frame dimensions do not match decoder",
            DecodeError::MissingReference => "predicted frame without a reference",
            DecodeError::Corrupt => "truncated or inconsistent payload",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for DecodeError {}

/// The encoder: owns the previous *reconstructed* frame so encoder and
/// decoder predict from identical references.
///
/// # Examples
///
/// ```
/// use odr_codec::{Decoder, Encoder, FrameKind};
///
/// let (w, h) = (64, 32);
/// let frame = vec![0x20u8; (w * h * 4) as usize];
/// let mut enc = Encoder::new(w, h, 3);
/// let mut dec = Decoder::new(w, h);
///
/// let first = enc.encode(&frame);
/// assert_eq!(first.kind, FrameKind::Intra);
/// let out = dec.decode(&first.data).unwrap();
/// assert_eq!(out.len(), frame.len());
///
/// // An unchanged frame compresses to almost nothing.
/// let second = enc.encode(&frame);
/// assert_eq!(second.kind, FrameKind::Predicted);
/// assert!(second.data.len() < first.data.len() / 10);
/// ```
#[derive(Clone, Debug)]
pub struct Encoder {
    width: u32,
    height: u32,
    /// Bits dropped per channel (0 = lossless, 4 = strong quantisation).
    quant_bits: u8,
    /// Force an I-frame every `iframe_interval` frames.
    iframe_interval: u32,
    frames: u64,
    reference: Option<Vec<u8>>,
    /// Quantise buffer; trades places with `reference` after each frame
    /// so steady-state encoding reuses both.
    scratch: Vec<u8>,
    /// Delta-coded payload buffer, reused across frames.
    payload: Vec<u8>,
}

impl Encoder {
    /// Creates an encoder for `width`×`height` RGBA frames, dropping
    /// `quant_bits` low bits per channel.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `quant_bits > 7`.
    #[must_use]
    pub fn new(width: u32, height: u32, quant_bits: u8) -> Self {
        assert!(width > 0 && height > 0, "empty frame");
        assert!(quant_bits <= 7, "quantisation too strong");
        Encoder {
            width,
            height,
            quant_bits,
            iframe_interval: 120,
            frames: 0,
            reference: None,
            scratch: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// Overrides the I-frame cadence.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn with_iframe_interval(mut self, interval: u32) -> Self {
        assert!(interval > 0, "interval must be positive");
        self.iframe_interval = interval;
        self
    }

    /// Encodes one RGBA frame (`width × height × 4` bytes).
    ///
    /// # Panics
    ///
    /// Panics if `rgba` has the wrong length.
    pub fn encode(&mut self, rgba: &[u8]) -> EncodedFrame {
        let expected = self.width as usize * self.height as usize * 4;
        assert_eq!(rgba.len(), expected, "frame size mismatch");

        let force_intra =
            self.reference.is_none() || self.frames.is_multiple_of(u64::from(self.iframe_interval));
        self.frames += 1;

        // Quantise the whole frame up front; prediction happens in the
        // quantised domain so the decoder reconstructs exactly.
        let mask = !0u8 << self.quant_bits;
        let mut quantised = core::mem::take(&mut self.scratch);
        quantised.clear();
        quantised.extend(rgba.iter().map(|&b| b & mask));

        let blocks_x = div_ceil(self.width as usize, BLOCK);
        let blocks_y = div_ceil(self.height as usize, BLOCK);

        let mut data = Vec::with_capacity(expected / 8);
        data.extend_from_slice(&MAGIC.to_le_bytes());
        data.push(if force_intra { 0 } else { 1 });
        data.push(self.quant_bits);
        data.extend_from_slice(&self.width.to_le_bytes());
        data.extend_from_slice(&self.height.to_le_bytes());

        // Changed-block bitmap (always present; all-ones for intra).
        let mut changed = vec![false; blocks_x * blocks_y];
        let mut blocks_coded = 0u32;
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                let is_changed = force_intra
                    || self
                        .reference
                        .as_ref()
                        .map(|r| block_differs(&quantised, r, self.width, bx, by))
                        .unwrap_or(true);
                changed[by * blocks_x + bx] = is_changed;
                if is_changed {
                    blocks_coded += 1;
                }
            }
        }
        let mut bitmap = vec![0u8; div_ceil(changed.len(), 8)];
        for (i, &c) in changed.iter().enumerate() {
            if c {
                bitmap[i / 8] |= 1 << (i % 8);
            }
        }
        data.extend_from_slice(&bitmap);

        // Payload: concatenated delta-coded blocks, RLE compressed as one
        // stream.
        self.payload.clear();
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                if changed[by * blocks_x + bx] {
                    append_block_deltas(
                        &mut self.payload,
                        &quantised,
                        self.width,
                        self.height,
                        bx,
                        by,
                    );
                }
            }
        }
        write_varint(&mut data, blocks_coded.into());
        rle_encode(&mut data, &self.payload);

        // The new frame becomes the reference; the old reference is the
        // next frame's quantise buffer.
        self.scratch = self.reference.replace(quantised).unwrap_or_default();
        EncodedFrame {
            kind: if force_intra {
                FrameKind::Intra
            } else {
                FrameKind::Predicted
            },
            data,
            blocks_coded,
        }
    }

    /// Frames encoded so far.
    #[must_use]
    pub fn frames_encoded(&self) -> u64 {
        self.frames
    }

    /// The last frame as the decoder reconstructs it: the source after
    /// quantisation, `None` before the first encode. A PSNR reference
    /// for the decoded stream that needs no second copy of the
    /// quantisation rule.
    #[must_use]
    pub fn reference(&self) -> Option<&[u8]> {
        self.reference.as_deref()
    }
}

/// The decoder: reconstructs frames and keeps the reference for predicted
/// frames.
#[derive(Clone, Debug)]
pub struct Decoder {
    width: u32,
    height: u32,
    reference: Option<Vec<u8>>,
}

impl Decoder {
    /// Creates a decoder for `width`×`height` RGBA frames.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    #[must_use]
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "empty frame");
        Decoder {
            width,
            height,
            reference: None,
        }
    }

    /// Decodes one bitstream into an RGBA frame.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for malformed input or a predicted frame
    /// with no reference.
    pub fn decode(&mut self, data: &[u8]) -> Result<Vec<u8>, DecodeError> {
        if data.len() < 12 || data[0..2] != MAGIC.to_le_bytes() {
            return Err(DecodeError::BadHeader);
        }
        let predicted = match data[2] {
            0 => false,
            1 => true,
            _ => return Err(DecodeError::BadHeader),
        };
        let width = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
        let height = u32::from_le_bytes([data[8], data[9], data[10], data[11]]);
        if width != self.width || height != self.height {
            return Err(DecodeError::DimensionMismatch);
        }

        let blocks_x = div_ceil(width as usize, BLOCK);
        let blocks_y = div_ceil(height as usize, BLOCK);
        let bitmap_len = div_ceil(blocks_x * blocks_y, 8);
        let mut pos = 12;
        let bitmap = data
            .get(pos..pos + bitmap_len)
            .ok_or(DecodeError::Corrupt)?
            .to_vec();
        pos += bitmap_len;

        let _blocks_coded = read_varint(data, &mut pos).ok_or(DecodeError::Corrupt)?;
        let payload = rle_decode(data, &mut pos).ok_or(DecodeError::Corrupt)?;

        let mut frame = if predicted {
            self.reference
                .clone()
                .ok_or(DecodeError::MissingReference)?
        } else {
            vec![0u8; width as usize * height as usize * 4]
        };

        let mut cursor = 0usize;
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                let idx = by * blocks_x + bx;
                if bitmap[idx / 8] & (1 << (idx % 8)) != 0 {
                    cursor =
                        apply_block_deltas(&mut frame, &payload, cursor, width, height, bx, by)
                            .ok_or(DecodeError::Corrupt)?;
                }
            }
        }
        if cursor != payload.len() {
            return Err(DecodeError::Corrupt);
        }
        self.reference = Some(frame.clone());
        Ok(frame)
    }
}

/// Peak signal-to-noise ratio between two equally sized byte buffers, in
/// dB; `f64::INFINITY` for identical buffers.
///
/// # Panics
///
/// Panics if the buffers differ in length or are empty.
#[must_use]
pub fn psnr(a: &[u8], b: &[u8]) -> f64 {
    assert_eq!(a.len(), b.len(), "buffer length mismatch");
    assert!(!a.is_empty(), "empty buffers");
    let mse: f64 = a
        .iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum::<f64>()
        / a.len() as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }
}

fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// Does `(bx, by)` differ between `frame` and `reference`?
fn block_differs(frame: &[u8], reference: &[u8], width: u32, bx: usize, by: usize) -> bool {
    let w = width as usize;
    let rows = frame.len() / (w * 4);
    let y0 = by * BLOCK;
    let y1 = ((by + 1) * BLOCK).min(rows);
    let x0 = bx * BLOCK * 4;
    let x1 = ((bx + 1) * BLOCK * 4).min(w * 4);
    for y in y0..y1 {
        let row = y * w * 4;
        if frame[row + x0..row + x1] != reference[row + x0..row + x1] {
            return true;
        }
    }
    false
}

/// Serialises one block as left-neighbour deltas (wrapping), row by row.
fn append_block_deltas(
    out: &mut Vec<u8>,
    frame: &[u8],
    width: u32,
    height: u32,
    bx: usize,
    by: usize,
) {
    let w = width as usize;
    let y1 = ((by + 1) * BLOCK).min(height as usize);
    let x0 = bx * BLOCK * 4;
    let x1 = ((bx + 1) * BLOCK * 4).min(w * 4);
    for y in by * BLOCK..y1 {
        let row = y * w * 4;
        let src = &frame[row + x0..row + x1];
        // The first pixel against zero, every later byte against the
        // same channel one pixel to the left.
        out.extend_from_slice(&src[..4]);
        out.extend(src[4..].iter().zip(src).map(|(&b, &a)| b.wrapping_sub(a)));
    }
}

/// Reverses [`append_block_deltas`]; returns the advanced cursor.
fn apply_block_deltas(
    frame: &mut [u8],
    payload: &[u8],
    mut cursor: usize,
    width: u32,
    height: u32,
    bx: usize,
    by: usize,
) -> Option<usize> {
    let w = width as usize;
    let y1 = ((by + 1) * BLOCK).min(height as usize);
    let x0 = bx * BLOCK * 4;
    let x1 = ((bx + 1) * BLOCK * 4).min(w * 4);
    for y in by * BLOCK..y1 {
        let row = y * w * 4;
        let mut prev = [0u8; 4];
        for px in (row + x0..row + x1).step_by(4) {
            for c in 0..4 {
                let delta = *payload.get(cursor)?;
                cursor += 1;
                let value = prev[c].wrapping_add(delta);
                frame[px + c] = value;
                prev[c] = value;
            }
        }
    }
    Some(cursor)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_frame(w: u32, h: u32) -> Vec<u8> {
        let mut f = Vec::with_capacity((w * h * 4) as usize);
        for y in 0..h {
            for x in 0..w {
                f.push((x * 255 / w) as u8);
                f.push((y * 255 / h) as u8);
                f.push(((x + y) % 256) as u8);
                f.push(0xff);
            }
        }
        f
    }

    #[test]
    fn lossless_roundtrip_at_zero_quant() {
        let frame = gradient_frame(80, 48);
        let mut enc = Encoder::new(80, 48, 0);
        let mut dec = Decoder::new(80, 48);
        let encoded = enc.encode(&frame);
        let decoded = dec.decode(&encoded.data).expect("decode");
        assert_eq!(decoded, frame);
        assert_eq!(psnr(&frame, &decoded), f64::INFINITY);
    }

    #[test]
    fn quantised_roundtrip_matches_quantised_source() {
        let frame = gradient_frame(64, 64);
        let mut enc = Encoder::new(64, 64, 3);
        let mut dec = Decoder::new(64, 64);
        let decoded = dec.decode(&enc.encode(&frame).data).expect("decode");
        let mask = !0u8 << 3;
        let expect: Vec<u8> = frame.iter().map(|&b| b & mask).collect();
        assert_eq!(decoded, expect);
        assert!(psnr(&frame, &decoded) > 30.0);
    }

    #[test]
    fn reference_is_the_decoders_reconstruction() {
        let frame = gradient_frame(48, 32);
        let mut enc = Encoder::new(48, 32, 3).with_iframe_interval(3);
        let mut dec = Decoder::new(48, 32);
        assert!(enc.reference().is_none());
        // Intra and predicted frames alike, through the swapped buffers.
        for step in 0..5u8 {
            let shifted: Vec<u8> = frame.iter().map(|&b| b.wrapping_add(step * 37)).collect();
            let decoded = dec.decode(&enc.encode(&shifted).data).expect("decode");
            assert_eq!(enc.reference(), Some(decoded.as_slice()), "frame {step}");
        }
    }

    #[test]
    fn static_scene_pframes_are_tiny() {
        let frame = gradient_frame(128, 128);
        let mut enc = Encoder::new(128, 128, 2);
        let i = enc.encode(&frame);
        let p = enc.encode(&frame);
        assert_eq!(i.kind, FrameKind::Intra);
        assert_eq!(p.kind, FrameKind::Predicted);
        assert_eq!(p.blocks_coded, 0);
        assert!(
            p.data.len() < 100,
            "static P-frame was {} bytes",
            p.data.len()
        );
    }

    #[test]
    fn partial_update_codes_only_changed_blocks() {
        let mut frame = gradient_frame(128, 128);
        let mut enc = Encoder::new(128, 128, 2);
        let mut dec = Decoder::new(128, 128);
        dec.decode(&enc.encode(&frame).data).expect("intra");

        // Touch one pixel: exactly one block should be re-coded.
        frame[4 * (30 * 128 + 40)] ^= 0xf0;
        let p = enc.encode(&frame);
        assert_eq!(p.blocks_coded, 1);
        let decoded = dec.decode(&p.data).expect("p-frame");
        let mask = !0u8 << 2;
        assert_eq!(
            decoded,
            frame.iter().map(|&b| b & mask).collect::<Vec<u8>>()
        );
    }

    #[test]
    fn iframe_cadence_is_respected() {
        let frame = gradient_frame(32, 32);
        let mut enc = Encoder::new(32, 32, 0).with_iframe_interval(4);
        let kinds: Vec<FrameKind> = (0..8).map(|_| enc.encode(&frame).kind).collect();
        assert_eq!(kinds[0], FrameKind::Intra);
        assert_eq!(kinds[4], FrameKind::Intra);
        assert!(kinds[1..4].iter().all(|&k| k == FrameKind::Predicted));
        assert_eq!(enc.frames_encoded(), 8);
    }

    #[test]
    fn decoder_rejects_garbage() {
        let mut dec = Decoder::new(32, 32);
        assert_eq!(dec.decode(&[1, 2, 3]), Err(DecodeError::BadHeader));
        let mut junk = vec![0u8; 64];
        junk[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        junk[2] = 9; // invalid frame type
        assert_eq!(dec.decode(&junk), Err(DecodeError::BadHeader));
    }

    #[test]
    fn decoder_rejects_wrong_dimensions() {
        let frame = gradient_frame(64, 32);
        let mut enc = Encoder::new(64, 32, 0);
        let encoded = enc.encode(&frame);
        let mut dec = Decoder::new(32, 64);
        assert_eq!(
            dec.decode(&encoded.data),
            Err(DecodeError::DimensionMismatch)
        );
    }

    #[test]
    fn predicted_without_reference_fails() {
        let frame = gradient_frame(32, 32);
        let mut enc = Encoder::new(32, 32, 0);
        let _ = enc.encode(&frame); // intra, discarded
        let p = enc.encode(&frame); // predicted
        let mut dec = Decoder::new(32, 32);
        assert_eq!(dec.decode(&p.data), Err(DecodeError::MissingReference));
    }

    #[test]
    fn truncated_payload_is_corrupt() {
        let frame = gradient_frame(48, 48);
        let mut enc = Encoder::new(48, 48, 0);
        let encoded = enc.encode(&frame);
        let mut dec = Decoder::new(48, 48);
        let cut = &encoded.data[..encoded.data.len() / 2];
        assert_eq!(dec.decode(cut), Err(DecodeError::Corrupt));
    }

    #[test]
    fn non_block_aligned_dimensions() {
        // 70×43 is not a multiple of 16 in either dimension.
        let frame = gradient_frame(70, 43);
        let mut enc = Encoder::new(70, 43, 0);
        let mut dec = Decoder::new(70, 43);
        let decoded = dec.decode(&enc.encode(&frame).data).expect("decode");
        assert_eq!(decoded, frame);
    }

    #[test]
    fn quantisation_shrinks_output() {
        let frame = gradient_frame(128, 128);
        let coarse = Encoder::new(128, 128, 4).encode_once(&frame);
        let fine = Encoder::new(128, 128, 0).encode_once(&frame);
        assert!(coarse < fine, "coarse {coarse} vs fine {fine}");
    }

    impl Encoder {
        fn encode_once(mut self, frame: &[u8]) -> usize {
            self.encode(frame).data.len()
        }
    }

    #[test]
    #[should_panic(expected = "frame size mismatch")]
    fn wrong_input_size_panics() {
        let mut enc = Encoder::new(16, 16, 0);
        let _ = enc.encode(&[0u8; 10]);
    }
}
