//! [`ArgBuf`]: call arguments held on the stack.
//!
//! Every invoke and every Java/native crossing gathers its arguments
//! into a short list. Most calls pass a handful, so the list keeps the
//! first [`INLINE_ARGS`] in place and spills to the heap only past that:
//! a call with few arguments allocates nothing.

use std::ops::Deref;

/// Arguments an [`ArgBuf`] holds without allocating.
pub const INLINE_ARGS: usize = 8;

/// A list of `Copy` call arguments: inline up to [`INLINE_ARGS`], on
/// the heap past that. Reads as a slice.
#[derive(Debug)]
pub struct ArgBuf<T> {
    inline: [T; INLINE_ARGS],
    len: usize,
    /// Every element, once there are more than fit inline.
    spill: Vec<T>,
}

impl<T: Copy + Default> ArgBuf<T> {
    /// An empty list.
    pub fn new() -> ArgBuf<T> {
        ArgBuf {
            inline: [T::default(); INLINE_ARGS],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Appends `value`, moving the list to the heap when it outgrows
    /// the inline slots.
    #[inline]
    pub fn push(&mut self, value: T) {
        if self.len < INLINE_ARGS {
            self.inline[self.len] = value;
        } else {
            if self.len == INLINE_ARGS {
                self.spill.reserve(2 * INLINE_ARGS);
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(value);
        }
        self.len += 1;
    }
}

impl<T: Copy + Default> Default for ArgBuf<T> {
    fn default() -> ArgBuf<T> {
        ArgBuf::new()
    }
}

impl<T> Deref for ArgBuf<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        if self.len <= INLINE_ARGS {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl<T: Copy + Default> FromIterator<T> for ArgBuf<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> ArgBuf<T> {
        let mut buf = ArgBuf::new();
        for value in iter {
            buf.push(value);
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_every_length_across_the_spill() {
        for n in 0..3 * INLINE_ARGS {
            let buf: ArgBuf<u32> = (0..n as u32).collect();
            assert_eq!(&buf[..], &(0..n as u32).collect::<Vec<_>>()[..], "length {n}");
            assert_eq!(buf.spill.is_empty(), n <= INLINE_ARGS, "length {n}");
        }
    }
}
