//! Merkle–Damgård padding shared by MD5 and SHA-1, built on the stack.

/// Calls `block` on each 64-byte block of `data` padded the MD5/SHA-1
/// way: the message, `0x80`, zeros up to 56 bytes mod 64, then the
/// 8-byte bit length `len` (little-endian for MD5, big-endian for
/// SHA-1). The full blocks are read in place; only the tail (one or two
/// blocks) is copied, into a stack buffer, so a digest allocates
/// nothing.
pub(crate) fn padded_blocks(data: &[u8], len: [u8; 8], mut block: impl FnMut(&[u8; 64])) {
    let mut full = data.chunks_exact(64);
    for b in &mut full {
        block(b.try_into().expect("64-byte chunk"));
    }
    let rest = full.remainder();
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let end = if rest.len() < 56 { 64 } else { 128 };
    tail[end - 8..end].copy_from_slice(&len);
    for b in tail[..end].chunks_exact(64) {
        block(b.try_into().expect("64-byte chunk"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The padded message the way the digests used to build it: copied
    /// whole into a growing `Vec`.
    fn reference(data: &[u8], len: [u8; 8]) -> Vec<u8> {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&len);
        msg
    }

    #[test]
    fn blocks_match_the_whole_padded_message_at_every_tail_length() {
        for n in 0..=200 {
            let data: Vec<u8> = (0..n).map(|i| (i * 7 + 1) as u8).collect();
            let len = ((n as u64) * 8).to_le_bytes();
            let mut got = Vec::new();
            padded_blocks(&data, len, |b| got.extend_from_slice(b));
            assert_eq!(got, reference(&data, len), "length {n}");
        }
    }
}
