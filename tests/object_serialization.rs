//! Tests for the `MPI.OBJECT` extension (paper §2.2): sending arrays of
//! serializable objects through the wrapper.

use mpijava::serial::{ObjectInputStream, ObjectOutputStream};
use mpijava::{Datatype, ErrorClass, MpiResult, MpiRuntime, Serializable};

#[derive(Debug, Clone, PartialEq)]
struct Record {
    id: i32,
    samples: Vec<f64>,
    label: String,
    flag: Option<bool>,
}

impl Serializable for Record {
    fn write_object(&self, out: &mut ObjectOutputStream) {
        out.write(&self.id);
        out.write(&self.samples);
        out.write(&self.label);
        out.write(&self.flag);
    }
    fn read_object(input: &mut ObjectInputStream<'_>) -> MpiResult<Self> {
        Ok(Record {
            id: input.read()?,
            samples: input.read()?,
            label: input.read()?,
            flag: input.read()?,
        })
    }
}

fn sample_records(seed: i32) -> Vec<Record> {
    (0..5)
        .map(|i| Record {
            id: seed * 10 + i,
            samples: (0..i as usize).map(|j| j as f64 * 0.5).collect(),
            label: format!("record-{seed}-{i}"),
            flag: if i % 2 == 0 { Some(true) } else { None },
        })
        .collect()
}

#[test]
fn objects_round_trip_between_ranks() {
    MpiRuntime::new(2)
        .run(|mpi| {
            let world = mpi.comm_world();
            if world.rank()? == 0 {
                let records = sample_records(3);
                world.send_object(&records, 0, records.len(), 1, 42)?;
            } else {
                let (records, status) = world.recv_object::<Record>(10, 0, 42)?;
                assert_eq!(status.source(), 0);
                assert_eq!(records, sample_records(3));
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn object_buffers_respect_offset_and_count() {
    MpiRuntime::new(2)
        .run(|mpi| {
            let world = mpi.comm_world();
            if world.rank()? == 0 {
                let records = sample_records(1);
                // Send only records[2..4].
                world.send_object(&records, 2, 2, 1, 1)?;
            } else {
                let (records, _) = world.recv_object::<Record>(2, 0, 1)?;
                assert_eq!(records.len(), 2);
                assert_eq!(records[0].id, 12);
                assert_eq!(records[1].id, 13);
            }
            Ok(())
        })
        .unwrap();
}

/// More objects than the receive asked for, and two crafted streams a
/// peer could send with a classic byte `Send`: one object whose length
/// runs past the end of the stream (into `recv_obj`), and a count no
/// stream of that size can hold (into `recv_object` with no limit).
/// Each is a `Truncate` error, never a panic.
#[test]
fn receiving_more_objects_than_expected_is_an_error() {
    MpiRuntime::new(2)
        .run(|mpi| {
            let world = mpi.comm_world();
            let past_end = [1u64.to_le_bytes(), u64::MAX.to_le_bytes()].concat();
            let huge_count = (u64::MAX / 4).to_le_bytes();
            if world.rank()? == 0 {
                let records = sample_records(0);
                world.send_object(&records, 0, 5, 1, 2)?;
                let byte = Datatype::byte();
                world.send(&past_end, 0, past_end.len(), &byte, 1, 3)?;
                world.send(&huge_count, 0, huge_count.len(), &byte, 1, 4)?;
            } else {
                let err = world.recv_object::<Record>(2, 0, 2).unwrap_err();
                assert_eq!(err.class, ErrorClass::Truncate);
                let err = mpijava::rs::Communicator::recv_obj::<Record>(&world, 0, 3).unwrap_err();
                assert_eq!(err.class, ErrorClass::Truncate, "length past the end");
                let err = world.recv_object::<Record>(usize::MAX, 0, 4).unwrap_err();
                assert_eq!(err.class, ErrorClass::Truncate, "count past the end");
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn broadcast_of_objects() {
    MpiRuntime::new(3)
        .run(|mpi| {
            let world = mpi.comm_world();
            let mine = if world.rank()? == 1 {
                sample_records(9)
            } else {
                Vec::new()
            };
            let everyone = world.bcast_object(&mine, 1)?;
            assert_eq!(everyone, sample_records(9));
            Ok(())
        })
        .unwrap();
}

#[test]
fn object_and_primitive_traffic_interleave() {
    MpiRuntime::new(2)
        .run(|mpi| {
            let world = mpi.comm_world();
            let rank = world.rank()?;
            if rank == 0 {
                world.send(&[5i32], 0, 1, &mpijava::Datatype::int(), 1, 1)?;
                world.send_object(&sample_records(7), 0, 5, 1, 1)?;
                world.send(&[6i32], 0, 1, &mpijava::Datatype::int(), 1, 1)?;
            } else {
                let mut a = [0i32; 1];
                world.recv(&mut a, 0, 1, &mpijava::Datatype::int(), 0, 1)?;
                let (records, _) = world.recv_object::<Record>(5, 0, 1)?;
                let mut b = [0i32; 1];
                world.recv(&mut b, 0, 1, &mpijava::Datatype::int(), 0, 1)?;
                assert_eq!(a, [5]);
                assert_eq!(b, [6]);
                assert_eq!(records.len(), 5);
            }
            Ok(())
        })
        .unwrap();
}
