//! The checkpoint codec: one positional [`State`] trait.
//!
//! A deterministic kernel makes checkpointing *verifiable*: if every piece of
//! mutable state — clock, `(time, seq)` counter, pending events, RNG stream
//! positions, component state — round-trips exactly, then a resumed run is
//! bit-identical to a straight-through run, and a property test can pin that
//! equivalence instead of trusting the serializer.
//!
//! A type's [`State`] is its *mutable* state only, written in a fixed order
//! with no names or tags: build-time configuration is not written, because a
//! snapshot is always loaded **in place** into a value freshly built from the
//! same scenario. The [`state!`](crate::state) macro implements the trait
//! for a struct from the list of its mutable fields, or for an enum from its
//! variants, so each type names what it checkpoints once, beside its
//! definition. This module implements it for the primitives (`f64` as its
//! raw bits, so floats round-trip exactly, NaN payloads and all),
//! [`SimTime`]/[`SimDuration`], `Option`, tuples, arrays, slices, the
//! growable collections and [`ChaCha8Rng`] (its word position: the key is
//! configuration);
//! [`Slab`](crate::Slab), [`EventQueue`](crate::EventQueue) and the
//! [`Simulation`](crate::Simulation) kernel block implement it beside their
//! definitions.
//!
//! Loading never trusts the bytes:
//!
//! * [`StateWriter::finish`] appends a 64-bit checksum of everything
//!   written, and [`StateReader::new`] verifies it before a single value is
//!   read, so a corrupt or truncated snapshot is an error, never a resumed
//!   run.
//! * Every length read from the bytes is bounded before it allocates or
//!   indexes: a growable collection (`Vec`, `VecDeque`, `BinaryHeap`) by the
//!   remaining input, a fixed one (a slice or `Box<[T]>`, sized when the
//!   scenario was built) by its built length.
//!
//! Format discipline beyond that (magic numbers, versioning, section order)
//! belongs to the model that defines a concrete snapshot format.

use crate::time::{SimDuration, SimTime};
use rand_chacha::ChaCha8Rng;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// Error produced when decoding a snapshot: a checksum mismatch, truncated
/// input, a bad tag, or a model-level consistency failure (wrong version,
/// mismatched structure).
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotError(String);

impl SnapshotError {
    /// Create an error with the given message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        SnapshotError(msg.to_string())
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot error: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

/// A value whose mutable state can be checkpointed and restored in place.
///
/// `save` appends the state to a [`StateWriter`]; `load` reads what `save`
/// wrote back into a value built from the same configuration. Both walk the
/// same fields in the same order, which the [`state!`](crate::state) macro
/// guarantees by generating them from one list.
pub trait State {
    /// Append this value's mutable state.
    fn save(&self, w: &mut StateWriter);

    /// Overwrite this value's mutable state with state written by
    /// [`save`](Self::save). On error the value may be partially overwritten
    /// and must be discarded.
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError>;
}

/// Implement [`State`](crate::snapshot::State) for a struct from the list of
/// its mutable fields, or for an enum from its variants.
///
/// ```text
/// state!(struct Foo { a, b, c });                      // fields in order
/// state!(struct Foo { a, b } then Foo::reindex);       // then rebuild derived fields
/// state!(impl[T: State + Default] struct Bar<T> { items });
/// state!(enum Ev { Tick, Fire { node, gen }, Set(p) }); // a tag, then the fields
/// ```
///
/// A struct loads its listed fields in place and leaves every other field
/// (configuration, derived indices) alone; the optional `then` hook, a
/// `fn(&mut Self) -> Result<(), SnapshotError>`, rebuilds derived state and
/// validates what was read. An enum writes its variant index and the
/// variant's fields; loading the variant the value already holds loads the
/// fields in place, any other is built from default field values first.
#[macro_export]
macro_rules! state {
    ($(impl[$($g:tt)*])? struct $ty:ty { $($field:ident),* $(,)? } $(then $after:path)?) => {
        impl<$($($g)*)?> $crate::snapshot::State for $ty {
            fn save(&self, w: &mut $crate::snapshot::StateWriter) {
                $($crate::snapshot::State::save(&self.$field, w);)*
            }

            fn load(
                &mut self,
                r: &mut $crate::snapshot::StateReader<'_>,
            ) -> Result<(), $crate::snapshot::SnapshotError> {
                $($crate::snapshot::State::load(&mut self.$field, r)?;)*
                $($after(self)?;)?
                Ok(())
            }
        }
    };
    ($(impl[$($g:tt)*])? enum $ty:ty {
        $($var:ident $({ $($named:ident),* })? $(( $($pos:ident),* ))?),* $(,)?
    }) => {
        impl<$($($g)*)?> $crate::snapshot::State for $ty {
            fn save(&self, w: &mut $crate::snapshot::StateWriter) {
                #[allow(clippy::enum_variant_names)]
                enum Tag { $($var),* }
                match self {
                    $(Self::$var $({ $($named),* })? $(( $($pos),* ))? => {
                        $crate::snapshot::State::save(&(Tag::$var as u8), w);
                        $($($crate::snapshot::State::save($named, w);)*)?
                        $($($crate::snapshot::State::save($pos, w);)*)?
                    })*
                }
            }

            fn load(
                &mut self,
                r: &mut $crate::snapshot::StateReader<'_>,
            ) -> Result<(), $crate::snapshot::SnapshotError> {
                #[allow(clippy::enum_variant_names)]
                enum Tag { $($var),* }
                let tag: u8 = r.read()?;
                $(if tag == Tag::$var as u8 {
                    if !matches!(self, Self::$var { .. }) {
                        *self = Self::$var
                            $({ $($named: Default::default()),* })?
                            $(( $($crate::__state_default!($pos)),* ))?;
                    }
                    $(if let Self::$var { $($named),* } = self {
                        $($crate::snapshot::State::load($named, r)?;)*
                    })?
                    $(if let Self::$var( $($pos),* ) = self {
                        $($crate::snapshot::State::load($pos, r)?;)*
                    })?
                    return Ok(());
                })*
                Err($crate::snapshot::SnapshotError::custom(format!(
                    "unknown {} variant {tag}",
                    stringify!($ty)
                )))
            }
        }
    };
}

/// `Default::default()` once per positional field of a variant built by
/// [`state!`](crate::state).
#[doc(hidden)]
#[macro_export]
macro_rules! __state_default {
    ($field:ident) => {
        Default::default()
    };
}

/// An append-only little-endian byte sink for snapshot encoding.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append the checksum of everything written and return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }

    fn put(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn put_len(&mut self, len: usize) {
        (len as u64).save(self);
    }
}

/// A cursor over checksum-verified snapshot bytes.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// A reader over `bytes` as [`StateWriter::finish`] returned them. The
    /// trailing checksum is verified here, before anything is read: a
    /// corrupt or truncated snapshot is rejected as a whole.
    pub fn new(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let split = bytes
            .len()
            .checked_sub(8)
            .ok_or_else(|| SnapshotError::custom("truncated: no checksum"))?;
        let (body, sum) = bytes.split_at(split);
        if checksum(body).to_le_bytes() != sum {
            return Err(SnapshotError::custom(
                "checksum mismatch: the snapshot is corrupt or truncated",
            ));
        }
        Ok(StateReader { buf: body, pos: 0 })
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Check that every byte was consumed (trailing garbage is an error).
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::custom(format!(
                "{} trailing bytes after the final section",
                self.remaining()
            )))
        }
    }

    /// Read a value written by [`State::save`], loading it into a default.
    pub fn read<T: State + Default>(&mut self) -> Result<T, SnapshotError> {
        let mut value = T::default();
        value.load(self)?;
        Ok(value)
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let bytes = self.buf.get(self.pos..self.pos + N).ok_or_else(|| {
            SnapshotError::custom(format!(
                "truncated: needed {N} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            ))
        })?;
        self.pos += N;
        let mut out = [0; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }

    /// A collection length, bounded by the remaining input: every element
    /// takes at least one byte, so a longer length is corrupt and must not
    /// reach an allocation.
    fn length(&mut self) -> Result<usize, SnapshotError> {
        let len: usize = self.read()?;
        if len > self.remaining() {
            return Err(SnapshotError::custom(format!(
                "length {len} exceeds the {} bytes that remain",
                self.remaining()
            )));
        }
        Ok(len)
    }
}

/// FNV-1a over little-endian 64-bit words (a trailing partial word byte by
/// byte). Each step is a bijection of the running sum, so changing any one
/// word — in particular flipping any one bit — always changes the result.
fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut sum: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of eight bytes"));
        sum = (sum ^ word).wrapping_mul(PRIME);
    }
    for &byte in words.remainder() {
        sum = (sum ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    sum
}

macro_rules! int_state {
    ($($t:ty),*) => {$(
        impl State for $t {
            fn save(&self, w: &mut StateWriter) {
                w.put(&self.to_le_bytes());
            }

            fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
                *self = <$t>::from_le_bytes(r.take()?);
                Ok(())
            }
        }
    )*};
}

int_state!(u8, u32, u64);

impl State for usize {
    fn save(&self, w: &mut StateWriter) {
        (*self as u64).save(w);
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let v: u64 = r.read()?;
        *self = usize::try_from(v)
            .map_err(|_| SnapshotError::custom(format!("usize {v} too large")))?;
        Ok(())
    }
}

impl State for bool {
    fn save(&self, w: &mut StateWriter) {
        u8::from(*self).save(w);
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        *self = match r.read::<u8>()? {
            0 => false,
            1 => true,
            other => return Err(SnapshotError::custom(format!("bad bool byte {other}"))),
        };
        Ok(())
    }
}

impl State for f64 {
    fn save(&self, w: &mut StateWriter) {
        self.to_bits().save(w);
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        *self = f64::from_bits(r.read()?);
        Ok(())
    }
}

impl State for SimTime {
    fn save(&self, w: &mut StateWriter) {
        self.as_nanos().save(w);
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        *self = SimTime::from_nanos(r.read()?);
        Ok(())
    }
}

impl State for SimDuration {
    fn save(&self, w: &mut StateWriter) {
        self.as_nanos().save(w);
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        *self = SimDuration::from_nanos(r.read()?);
        Ok(())
    }
}

/// A generator's mutable state is its position in the keystream. Its key is
/// build-time configuration, derived from the seed the value was built
/// with, so loading seeks the generator in place to that word.
impl State for ChaCha8Rng {
    fn save(&self, w: &mut StateWriter) {
        u64::try_from(self.get_word_pos())
            .expect("a ChaCha8 stream past 2^64 words")
            .save(w);
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let word_pos: u64 = r.read()?;
        self.set_word_pos(u128::from(word_pos));
        Ok(())
    }
}

impl<T: State + Default> State for Option<T> {
    fn save(&self, w: &mut StateWriter) {
        self.is_some().save(w);
        if let Some(value) = self {
            value.save(w);
        }
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        if r.read::<bool>()? {
            self.get_or_insert_with(T::default).load(r)
        } else {
            *self = None;
            Ok(())
        }
    }
}

impl<A: State, B: State> State for (A, B) {
    fn save(&self, w: &mut StateWriter) {
        self.0.save(w);
        self.1.save(w);
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.0.load(r)?;
        self.1.load(r)
    }
}

impl<T: State, const N: usize> State for [T; N] {
    fn save(&self, w: &mut StateWriter) {
        self.iter().for_each(|item| item.save(w));
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.iter_mut().try_for_each(|item| item.load(r))
    }
}

/// A slice has the length it was built with: the snapshot must agree.
impl<T: State> State for [T] {
    fn save(&self, w: &mut StateWriter) {
        w.put_len(self.len());
        self.iter().for_each(|item| item.save(w));
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let len: usize = r.read()?;
        if len != self.len() {
            return Err(SnapshotError::custom(format!(
                "snapshot has {len} entries where {} were built",
                self.len()
            )));
        }
        self.iter_mut().try_for_each(|item| item.load(r))
    }
}

impl<T: State + ?Sized> State for Box<T> {
    fn save(&self, w: &mut StateWriter) {
        (**self).save(w);
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        (**self).load(r)
    }
}

/// A vector takes the snapshot's length, growing with default elements.
impl<T: State + Default> State for Vec<T> {
    fn save(&self, w: &mut StateWriter) {
        self[..].save(w);
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let len = r.length()?;
        self.resize_with(len, T::default);
        self.iter_mut().try_for_each(|item| item.load(r))
    }
}

impl<T: State + Default> State for VecDeque<T> {
    fn save(&self, w: &mut StateWriter) {
        w.put_len(self.len());
        self.iter().for_each(|item| item.save(w));
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let len = r.length()?;
        self.resize_with(len, T::default);
        self.iter_mut().try_for_each(|item| item.load(r))
    }
}

/// A heap saves its entries in storage order and reloads them into a fresh
/// heap: the pop order of a heap of distinct keys does not depend on layout.
impl<T: State + Default + Ord> State for BinaryHeap<T> {
    fn save(&self, w: &mut StateWriter) {
        self.as_slice().save(w);
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let mut items = std::mem::take(self).into_vec();
        items.load(r)?;
        *self = BinaryHeap::from(items);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn round_trip<T: State>(value: &T, into: &mut T) {
        let mut w = StateWriter::new();
        value.save(&mut w);
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes).unwrap();
        into.load(&mut r).unwrap();
        r.expect_end().unwrap();
    }

    #[test]
    fn primitives_round_trip() {
        let value = (
            (7u8, 0xdead_beef_u32),
            (
                (u64::MAX - 1, 12345usize),
                (
                    (true, false),
                    (
                        (-0.0f64, f64::NAN),
                        (SimTime::from_micros(9), SimDuration::from_millis(3)),
                    ),
                ),
            ),
        );
        let mut back = Default::default();
        round_trip(&value, &mut back);
        let (a, (b, (c, (d, e)))) = back;
        assert_eq!(a, (7, 0xdead_beef));
        assert_eq!(b, (u64::MAX - 1, 12345));
        assert_eq!(c, (true, false));
        assert_eq!(d.0.to_bits(), (-0.0f64).to_bits());
        assert!(d.1.is_nan());
        assert_eq!(e, (SimTime::from_micros(9), SimDuration::from_millis(3)));
    }

    #[test]
    fn nested_state_round_trips_with_exact_floats() {
        // Loading shrinks and grows the target's collections to fit.
        let floats = vec![Some(0.1 + 0.2), None, Some(f64::MIN_POSITIVE)];
        let mut back = vec![Some(9.0); 7];
        round_trip(&floats, &mut back);
        assert_eq!(back.len(), 3);
        assert_eq!(back[0].unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(back[1], None);
        let pairs = VecDeque::from(vec![(1u32, vec![2u8, 3]), (4, vec![])]);
        let mut back = VecDeque::from(vec![(0, vec![1])]);
        round_trip(&pairs, &mut back);
        assert_eq!(back, pairs);
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        // A reader needs a whole checksummed blob.
        assert!(StateReader::new(&[1, 2, 3]).is_err());
        let mut w = StateWriter::new();
        42u64.save(&mut w);
        let bytes = w.finish();
        assert!(StateReader::new(&bytes[..bytes.len() - 1]).is_err());
        // Reading past the end of a valid blob is an error too.
        let mut w = StateWriter::new();
        7u32.save(&mut w);
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes).unwrap();
        assert!(r.read::<u64>().is_err());
    }

    #[test]
    fn lengths_are_bounded_before_they_allocate() {
        // A length claiming far more elements than there are bytes left.
        let mut w = StateWriter::new();
        (1u64 << 40).save(&mut w);
        let bytes = w.finish();
        let mut v: Vec<u64> = Vec::new();
        let err = v.load(&mut StateReader::new(&bytes).unwrap()).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        // A fixed-length slice must get exactly its built length.
        let mut w = StateWriter::new();
        [1u8, 2, 3][..].save(&mut w);
        let bytes = w.finish();
        let mut fixed = vec![0u8; 4].into_boxed_slice();
        assert!(fixed.load(&mut StateReader::new(&bytes).unwrap()).is_err());
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let mut w = StateWriter::new();
        (vec![1u64, 2, 3], (0.5f64, Some(SimTime::from_millis(60)))).save(&mut w);
        let bytes = w.finish();
        assert!(StateReader::new(&bytes).is_ok());
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    StateReader::new(&flipped).is_err(),
                    "flip of bit {bit} in byte {byte} went undetected"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = StateWriter::new();
        (1u8, 2u8).save(&mut w);
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes).unwrap();
        assert_eq!(r.read::<u8>().unwrap(), 1);
        assert!(r.expect_end().is_err());
    }

    #[test]
    fn rng_round_trips_at_exact_position() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..77 {
            rng.gen::<u32>();
        }
        // Loaded in place into a generator built from the same seed.
        let mut restored = ChaCha8Rng::seed_from_u64(99);
        round_trip(&rng, &mut restored);
        for _ in 0..300 {
            assert_eq!(rng.gen::<u64>(), restored.gen::<u64>());
        }
        // The position alone: 8 bytes.
        let mut w = StateWriter::new();
        rng.save(&mut w);
        assert_eq!(w.len(), 8);
    }

    #[derive(Debug, Default, PartialEq)]
    enum Shape {
        #[default]
        Empty,
        Point(f64, f64),
        Named {
            id: u32,
            tags: Vec<u8>,
        },
    }

    state!(enum Shape { Empty, Point(x, y), Named { id, tags } });

    #[test]
    fn enums_switch_variants_or_load_in_place() {
        for shape in [
            Shape::Empty,
            Shape::Point(1.5, -2.0),
            Shape::Named {
                id: 7,
                tags: vec![1, 2],
            },
        ] {
            for mut start in [Shape::Empty, Shape::Point(0.0, 0.0)] {
                round_trip(&shape, &mut start);
                assert_eq!(start, shape);
            }
        }
    }

    #[test]
    fn bad_tags_error() {
        let mut w = StateWriter::new();
        9u8.save(&mut w);
        let bytes = w.finish();
        assert!(StateReader::new(&bytes).unwrap().read::<bool>().is_err());
        assert!(StateReader::new(&bytes)
            .unwrap()
            .read::<Option<u8>>()
            .is_err());
        let err = StateReader::new(&bytes)
            .unwrap()
            .read::<Shape>()
            .unwrap_err();
        assert!(err.to_string().contains("unknown Shape variant 9"), "{err}");
    }
}
