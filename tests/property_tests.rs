//! Property-style tests over the invariants the library relies on: datatype
//! size/extent algebra, pack/unpack round trips, group set algebra,
//! reduction correctness against a serial fold, and object serialization
//! round trips.
//!
//! The build environment has no crates.io mirror, so instead of proptest
//! these run each property over a deterministic pseudo-random sample
//! (a fixed-seed xorshift generator) — the same shape of coverage, fully
//! reproducible, no external dependency.

use mpi_native::{pack, DatatypeDef, Group, Op, PredefinedOp, PrimitiveKind};
use mpijava::serial::{deserialize, serialize};
use mpijava::Datatype;

/// Deterministic xorshift64* generator: the "arbitrary input" source.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[lo, hi)`.
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }

    fn isize_in(&mut self, lo: isize, hi: isize) -> isize {
        lo + (self.next_u64() as usize % (hi - lo) as usize) as isize
    }

    fn i32_in(&mut self, lo: i32, hi: i32) -> i32 {
        lo + (self.next_u64() % (hi - lo) as u64) as i32
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

const CASES: usize = 64;

/// size(contiguous(n, T)) == n * size(T) and extents compose the same way.
#[test]
fn contiguous_datatype_algebra() {
    let mut g = Gen::new(0xC047);
    for _ in 0..CASES {
        let count = g.usize_in(1, 50);
        let base = Datatype::double();
        let derived = Datatype::contiguous(count, &base).unwrap();
        assert_eq!(derived.size(), count * base.size());
        assert_eq!(derived.extent(), count as isize * base.extent());
    }
}

/// A vector type selects exactly count*blocklength elements regardless of
/// stride, and its extent equals the span implied by the stride.
#[test]
fn vector_datatype_size_is_stride_independent() {
    let mut g = Gen::new(0x7EC7);
    for _ in 0..CASES {
        let count = g.usize_in(1, 8);
        let blocklength = g.usize_in(1, 8);
        let extra_stride = g.isize_in(0, 8);
        let stride = blocklength as isize + extra_stride;
        let v = Datatype::vector(count, blocklength, stride, &Datatype::int()).unwrap();
        assert_eq!(v.size(), count * blocklength * 4);
        let span = ((count as isize - 1) * stride + blocklength as isize) * 4;
        assert_eq!(v.extent(), span);
    }
}

/// pack followed by unpack restores exactly the selected elements and
/// never touches the holes.
#[test]
fn pack_unpack_roundtrip_indexed() {
    let mut g = Gen::new(0xD00D);
    for _ in 0..CASES {
        // Build non-overlapping blocks by laying them out cumulatively.
        let n_blocks = g.usize_in(1, 5);
        let mut blocklengths = Vec::new();
        let mut displacements = Vec::new();
        let mut cursor = 0isize;
        for _ in 0..n_blocks {
            let len = g.usize_in(1, 4);
            let gap = g.usize_in(0, 4);
            displacements.push(cursor + gap as isize);
            blocklengths.push(len);
            cursor += (gap + len) as isize;
        }
        let dt = DatatypeDef::basic(PrimitiveKind::Int)
            .indexed(&blocklengths, &displacements)
            .unwrap();
        let total_elems = cursor as usize + 4;
        let original: Vec<u8> = (0..total_elems as i32 * 4).map(|i| i as u8).collect();
        let packed = pack::pack(&original, 0, 1, &dt).unwrap();
        assert_eq!(packed.len(), dt.size());

        let mut restored = vec![0u8; original.len()];
        pack::unpack(&packed, &mut restored, 0, 1, &dt).unwrap();
        // Pack the restored buffer again: must equal the first packing.
        let repacked = pack::pack(&restored, 0, 1, &dt).unwrap();
        assert_eq!(packed, repacked);
    }
}

/// Group set algebra: union/intersection/difference behave like the
/// corresponding operations on sets of world ranks.
#[test]
fn group_set_algebra() {
    use std::collections::BTreeSet;
    let mut g = Gen::new(0x6209);
    for _ in 0..CASES {
        let a: BTreeSet<usize> = (0..g.usize_in(0, 10)).map(|_| g.usize_in(0, 16)).collect();
        let b: BTreeSet<usize> = (0..g.usize_in(0, 10)).map(|_| g.usize_in(0, 16)).collect();
        let ga = Group::from_ranks(a.iter().copied().collect()).unwrap();
        let gb = Group::from_ranks(b.iter().copied().collect()).unwrap();

        let union: BTreeSet<usize> = ga.union(&gb).ranks().iter().copied().collect();
        let expected_union: BTreeSet<usize> = a.union(&b).copied().collect();
        assert_eq!(union, expected_union);

        let inter: BTreeSet<usize> = ga.intersection(&gb).ranks().iter().copied().collect();
        let expected_inter: BTreeSet<usize> = a.intersection(&b).copied().collect();
        assert_eq!(inter, expected_inter);

        let diff: BTreeSet<usize> = ga.difference(&gb).ranks().iter().copied().collect();
        let expected_diff: BTreeSet<usize> = a.difference(&b).copied().collect();
        assert_eq!(diff, expected_diff);

        // Membership / rank translation consistency.
        for (idx, &world) in ga.ranks().iter().enumerate() {
            assert_eq!(ga.rank_of(world), Some(idx));
        }
    }
}

/// Engine reductions agree with a straightforward serial fold.
#[test]
fn reductions_match_serial_fold() {
    let mut g = Gen::new(0xF01D);
    for _ in 0..CASES {
        let n_contrib = g.usize_in(1, 6);
        let contributions: Vec<Vec<i32>> = (0..n_contrib)
            .map(|_| (0..4).map(|_| g.i32_in(-1000, 1000)).collect())
            .collect();
        for op in [PredefinedOp::Sum, PredefinedOp::Max, PredefinedOp::Min] {
            let engine_op = Op::Predefined(op);
            let mut acc: Vec<u8> = contributions[0]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            for c in &contributions[1..] {
                let bytes: Vec<u8> = c.iter().flat_map(|v| v.to_le_bytes()).collect();
                engine_op
                    .apply(&bytes, &mut acc, PrimitiveKind::Int, 4)
                    .unwrap();
            }
            let got: Vec<i32> = acc
                .chunks_exact(4)
                .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            for i in 0..4 {
                let column: Vec<i32> = contributions.iter().map(|c| c[i]).collect();
                let expected = match op {
                    PredefinedOp::Sum => column.iter().sum::<i32>(),
                    PredefinedOp::Max => *column.iter().max().unwrap(),
                    PredefinedOp::Min => *column.iter().min().unwrap(),
                    _ => unreachable!(),
                };
                assert_eq!(got[i], expected, "op {op:?} column {i}");
            }
        }
    }
}

/// The object serializer round-trips arbitrary nested payloads.
#[test]
fn serialization_roundtrip() {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
    let mut g = Gen::new(0x5E41);
    for _ in 0..CASES {
        let ints: Vec<i64> = (0..g.usize_in(0, 20))
            .map(|_| g.next_u64() as i64)
            .collect();
        let text: String = (0..g.usize_in(0, 40))
            .map(|_| ALPHABET[g.usize_in(0, ALPHABET.len())] as char)
            .collect();
        let flag = if g.bool() { Some(g.bool()) } else { None };
        let value = (ints.clone(), text.clone(), flag);
        let bytes = serialize(&value);
        let back: (Vec<i64>, String, Option<bool>) = deserialize(&bytes).unwrap();
        assert_eq!(back, value);
    }
}

/// Status counts divide bytes exactly or report None, never panic.
#[test]
fn status_count_partial_instances() {
    for bytes in 0usize..256 {
        let info = mpi_native::StatusInfo {
            source: 0,
            tag: 0,
            count_bytes: bytes,
            cancelled: false,
            index: 0,
        };
        for kind in [
            PrimitiveKind::Byte,
            PrimitiveKind::Int,
            PrimitiveKind::Double,
        ] {
            match info.count(kind) {
                Some(n) => assert_eq!(n * kind.size(), bytes),
                None => assert_ne!(bytes % kind.size(), 0),
            }
        }
    }
}

// ---------------------------------------------------------------------
// The marshal seam (`mpijava::buffer`): a typed buffer and its wire bytes
// ---------------------------------------------------------------------

use mpijava::{BufferElement, ErrorClass, Intracomm, JniConfig, MarshalMode, MpiRuntime};

/// A datatype over base `T` together with what it selects, computed here
/// from the constructor arguments and not from the typemap: the element
/// indices of one instance in wire order, and the instance stride.
struct Shape {
    name: &'static str,
    datatype: Datatype,
    picks: Vec<usize>,
    extent: usize,
}

fn shapes<T: BufferElement>(g: &mut Gen) -> Vec<Shape> {
    let base = T::datatype();
    let k = g.usize_in(2, 5);
    let (blocks, len, stride) = (g.usize_in(2, 4), g.usize_in(1, 3), g.usize_in(4, 7));
    // Indexed blocks laid out cumulatively, the first at 0, gaps between.
    let mut lens = Vec::new();
    let mut displs = Vec::new();
    let mut cursor = 0usize;
    for _ in 0..g.usize_in(2, 4) {
        displs.push(cursor as isize);
        lens.push(g.usize_in(1, 3));
        cursor += lens[lens.len() - 1] + g.usize_in(1, 3);
    }
    let indexed_picks: Vec<usize> = lens
        .iter()
        .zip(&displs)
        .flat_map(|(&l, &d)| d as usize..d as usize + l)
        .collect();
    vec![
        Shape {
            name: "basic",
            datatype: base.clone(),
            picks: vec![0],
            extent: 1,
        },
        Shape {
            name: "contiguous",
            datatype: Datatype::contiguous(k, &base).unwrap(),
            picks: (0..k).collect(),
            extent: k,
        },
        Shape {
            name: "vector",
            datatype: Datatype::vector(blocks, len, stride as isize, &base).unwrap(),
            picks: (0..blocks)
                .flat_map(|b| b * stride..b * stride + len)
                .collect(),
            extent: (blocks - 1) * stride + len,
        },
        Shape {
            name: "indexed",
            datatype: Datatype::indexed(&lens, &displs, &base).unwrap(),
            extent: indexed_picks[indexed_picks.len() - 1] + 1,
            picks: indexed_picks,
        },
    ]
}

/// The wire image of `elements`, one `write_le` at a time: the reference
/// the seam's block views are held to.
fn reference_wire<T: BufferElement>(elements: impl Iterator<Item = T>) -> Vec<u8> {
    let mut wire = Vec::new();
    for e in elements {
        let mut le = [0u8; 8];
        e.write_le(&mut le);
        wire.extend_from_slice(&le[..T::width()]);
    }
    wire
}

/// The `rs` surface's leg of the seam (`bytes_of` out, `store_bytes`
/// back): a one-rank gather returns the elements it was given and stops
/// there. (In a function of its own: the trait shadows classic names.)
fn rs_gather_round_trip<T>(world: &Intracomm, source: &[T], spare: T)
where
    T: BufferElement + PartialEq + std::fmt::Debug,
{
    use mpijava::rs::Communicator as _;
    let mut target = vec![spare; source.len() + 2];
    world
        .iall_gather(source, &mut target[1..source.len() + 1])
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(target[1..source.len() + 1], *source, "{:?}", T::KIND);
    assert_eq!([target[0], target[source.len() + 1]], [spare, spare]);
}

/// Every shape × non-zero offsets, for one element type: `Pack` produces
/// the reference bytes; a self-addressed message lands on exactly the
/// selected elements; a short one fills only a prefix of them.
fn seam_matches_reference<T>(world: &Intracomm, g: &mut Gen, arbitrary: fn(&mut Gen) -> T)
where
    T: BufferElement + PartialEq + std::fmt::Debug,
{
    for shape in shapes::<T>(g) {
        let what = format!("{:?} {}", T::KIND, shape.name);
        let count = g.usize_in(2, 4);
        let (send_off, recv_off) = (g.usize_in(1, 5), g.usize_in(1, 5));
        let span = (count - 1) * shape.extent + shape.picks[shape.picks.len() - 1] + 1;
        let selected = |offset: usize, instances: usize| -> Vec<usize> {
            (0..instances)
                .flat_map(|i| {
                    shape
                        .picks
                        .iter()
                        .map(move |p| offset + i * shape.extent + p)
                })
                .collect()
        };
        let source: Vec<T> = (0..send_off + span + 2).map(|_| arbitrary(g)).collect();
        let sent = selected(send_off, count);
        rs_gather_round_trip(world, &source, arbitrary(g));

        let mut wire = vec![0xEE];
        let end = world
            .pack(&source, send_off, count, &shape.datatype, &mut wire)
            .unwrap();
        assert_eq!(end, wire.len());
        assert_eq!(
            wire[1..],
            reference_wire(sent.iter().map(|&i| source[i])),
            "{what}: wire bytes"
        );

        for instances in [count, count - 1] {
            let before: Vec<T> = (0..recv_off + span + 3).map(|_| arbitrary(g)).collect();
            let mut target = before.clone();
            let mut request = world
                .isend(&source, send_off, instances, &shape.datatype, 0, 7)
                .unwrap();
            let status = world
                .recv(&mut target, recv_off, count, &shape.datatype, 0, 7)
                .unwrap();
            request.wait().unwrap();
            assert_eq!(
                status.get_count(&T::datatype()),
                Some(instances * shape.picks.len()),
                "{what}"
            );
            let filled = selected(recv_off, instances);
            for (i, (got, old)) in target.iter().zip(&before).enumerate() {
                match filled.iter().position(|&f| f == i) {
                    Some(nth) => assert_eq!(*got, source[sent[nth]], "{what}: element {i}"),
                    None => assert_eq!(got, old, "{what}: element {i} is not the message's"),
                }
            }
        }
    }
}

/// All ten element types × {basic, contiguous, vector with holes,
/// indexed} × {Copy, Pin} × non-zero offsets against the element-wise
/// reference, plus the two wire values that are not valid elements.
#[test]
fn marshal_seam_matches_elementwise_reference() {
    for marshal in [MarshalMode::Copy, MarshalMode::Pin] {
        MpiRuntime::new(1)
            .jni(JniConfig {
                marshal,
                ..JniConfig::default()
            })
            .run(|mpi| {
                let world = mpi.comm_world();
                let g = &mut Gen::new(0x5EA9);
                for _ in 0..8 {
                    seam_matches_reference::<i8>(&world, g, |g| g.next_u64() as i8);
                    seam_matches_reference::<u8>(&world, g, |g| g.next_u64() as u8);
                    seam_matches_reference::<i16>(&world, g, |g| g.next_u64() as i16);
                    seam_matches_reference::<u16>(&world, g, |g| g.next_u64() as u16);
                    seam_matches_reference::<i32>(&world, g, |g| g.next_u64() as i32);
                    seam_matches_reference::<i64>(&world, g, |g| g.next_u64() as i64);
                    seam_matches_reference::<f32>(&world, g, |g| {
                        g.i32_in(-9999, 9999) as f32 / 8.0
                    });
                    seam_matches_reference::<f64>(&world, g, |g| g.next_u64() as i64 as f64 / 64.0);
                    seam_matches_reference::<bool>(&world, g, |g| g.bool());
                    seam_matches_reference::<char>(&world, g, |g| {
                        char::from_u32(g.usize_in(0x20, 0xD800) as u32).unwrap()
                    });
                }

                let mut flags = [false; 3];
                world.unpack(&[2, 0, 1], 0, &mut flags, 0, 3, &Datatype::boolean())?;
                assert_eq!(flags, [true, false, true]);
                let mut text = ['x'; 3];
                let units = [0x00, 0xD8, b'o', 0x00, 0xAC, 0x20];
                world.unpack(&units, 0, &mut text, 1, 2, &Datatype::char())?;
                assert_eq!(text, ['x', '\u{FFFD}', 'o']);
                mpi.finalize()
            })
            .unwrap();
    }
}

/// Offsets, counts and positions the buffer cannot hold come back as an
/// `MPIException` of the documented class — never as an arithmetic or
/// slice-index panic (debug) or a wrapped length (release). Every call
/// here fails in the binding, before the engine posts anything.
#[test]
fn marshal_arithmetic_overflow_is_an_error_class() {
    const MAX: usize = usize::MAX;
    macro_rules! expect {
        ($class:ident: $call:expr) => {
            let class = $call.err().map(|e| e.class);
            assert_eq!(class, Some(ErrorClass::$class), stringify!($call));
        };
    }
    MpiRuntime::new(1)
        .run(|mpi| {
            let world = mpi.comm_world();
            let int = Datatype::int();
            let holes = Datatype::vector(2, 1, 3, &int).unwrap();
            let data = [1i32, 2, 3];
            let mut room = [0i32; 3];
            let (one, far, mut sink) = ([1usize], [MAX], Vec::new());

            // Send side: `Buffer`; a count whose span overflows: `Count`.
            expect!(Buffer: world.send(&data, MAX, 1, &int, 0, 0));
            expect!(Count: world.send(&data, 0, MAX, &int, 0, 0));
            expect!(Count: world.send(&data, 0, MAX / 4, &int, 0, 0));
            expect!(Buffer: world.send(&data, 0, 1 << 40, &int, 0, 0));
            expect!(Buffer: world.send(&data, MAX - 1, 1, &holes, 0, 0));
            expect!(Buffer: world.isend(&data, MAX, 1, &int, 0, 0));
            expect!(Count: world.send_init(&data, 1, MAX, &int, 0, 0));
            expect!(Buffer: world.pack(&data, MAX, 2, &int, &mut sink));
            expect!(Buffer: world.send_object(&data, MAX, 1, 0, 0));
            expect!(Buffer: world.scatterv(&data, 1, &one, &far, &int, &mut room, 0, 1, &int, 0));
            expect!(Buffer: world.alltoallv(&data, 2, &one, &far, &holes, &mut room, 0, &one, &one, &int));

            // Receive side: `Truncate`.
            expect!(Truncate: world.recv(&mut room, MAX, 1, &int, 0, 0));
            expect!(Count: world.recv(&mut room, 0, MAX, &int, 0, 0));
            expect!(Truncate: world.recv(&mut room, 0, 1 << 40, &int, 0, 0));
            expect!(Count: world.recv(&mut room, 0, MAX / 8, &holes, 0, 0));
            expect!(Truncate: world.irecv(&mut room, MAX, 2, &int, 0, 0));
            expect!(Count: world.irecv(&mut room, 1, MAX, &int, 0, 0));
            expect!(Truncate: world.recv_init(&mut room, MAX, 1, &int, 0, 0));
            expect!(Count: world.recv_init(&mut room, 0, MAX / 3, &int, 0, 0));
            expect!(Truncate: world.sendrecv(&data, 0, 1, &int, 0, 0, &mut room, MAX, 1, &int, 0, 0));
            expect!(Count: world.sendrecv(&data, 0, 1, &int, 0, 0, &mut room, 0, MAX, &int, 0, 0));
            expect!(Truncate: world.unpack(&[0u8; 8], MAX, &mut room, 0, 1, &int));
            expect!(Count: world.unpack(&[0u8; 8], 0, &mut room, 0, MAX, &int));

            assert_eq!(world.pack_size(MAX, &int), MAX);
            mpi.finalize()
        })
        .unwrap();
}
