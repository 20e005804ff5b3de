//! Surface-level copy pins: per classic send call, exactly how many
//! payload bytes cross the simulated JNI boundary (`jni.bytes_in`) and how
//! many the engine copies (`engine.bytes_copied`), in both marshal modes
//! and on both protocols (eager below the 1 KiB threshold, rendezvous
//! above it).
//!
//! | call (sender) | `Copy`: in / engine copies | `Pin`: in / engine copies |
//! |---|---|---|
//! | `Send`, `Isend`, `Sendrecv`, `Prequest.Start` | len / 0 | len / len |
//! | `Ssend`, `Issend` (rendezvous at every size) | len / 0 | len / len |
//! | `Send` of a strided `Datatype::vector` (every other `INT`) | window / 0 | window / 0 |
//! | `rs` `send_bytes`, `isend_bytes` | 0 / 0 | 0 / 0 |
//! | `Send[OBJECT]` | stream / 0 | stream / 0 |
//!
//! Collective rows: every form of a collective crosses the boundary
//! alike. Per rank of a 2-rank `MPI.INT` `SUM` `Allreduce` at 256 B and
//! 16 KiB, in both modes:
//!
//! | form | in / out | engine copies |
//! |---|---|---|
//! | classic `Allreduce` | len / len | the classic form's (len at 2 ranks) |
//! | `rs` `all_reduce` | len / len | the same |
//! | `iall_reduce` + `wait` | len / len | the same |
//! | `all_reduce_init` + `start` / `wait` | len / len | the same |
//!
//! A `Copy` send's boundary copy is the message: the engine sends that
//! buffer and copies nothing. A `Pin` send lends the caller's slice, and
//! the engine's one staging copy is the only pass. A strided send's
//! gather is the message in both modes: the boundary counts the window it
//! read (`2 len - 4` bytes), the engine copies nothing. An owned `Bytes`
//! crosses no boundary and is moved, never copied. A blocking dense
//! `Send` of a rendezvous streams: under `Copy` the engine takes the
//! boundary copy one chunk at a time, and counts none of it. The
//! 1 MiB + 7 B `BYTE` row (nine chunks, the last 7 B, at the default
//! eager threshold) pins the same figures for it. An object stream is
//! always an owned buffer. The receiving side of every row but
//! `Sendrecv` and `Send[OBJECT]` is a classic `Recv` of `len` bytes of
//! `INT`: one engine delivery copy into the window, nothing marshalled
//! in.

use mpijava::{
    Datatype, JniConfig, MarshalMode, MpiResult, MpiRuntime, ObjectInputStream, ObjectOutputStream,
    Serializable, MPI,
};

const THRESHOLD: usize = 1024;
/// One payload per protocol, in bytes of `MPI.INT`.
const SIZES: [usize; 2] = [256, 16 * 1024];
const MODES: [MarshalMode; 2] = [MarshalMode::Copy, MarshalMode::Pin];
const TAG: i32 = 5;

#[derive(Debug, Clone, Copy)]
enum Call {
    Send,
    Isend,
    Ssend,
    Issend,
    SendVector,
    SendBytes,
    IsendBytes,
    Sendrecv,
    Start,
    SendObject,
}

/// What one rank's counters moved by across the calls under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pass {
    bytes_in: u64,
    bytes_out: u64,
    bytes_copied: u64,
    eager_sends: u64,
    rendezvous_sends: u64,
}

fn counters(mpi: &MPI) -> [u64; 5] {
    let (jni, engine) = (mpi.jni_stats(), mpi.engine_stats());
    [
        jni.bytes_in,
        jni.bytes_out,
        engine.bytes_copied,
        engine.eager_sends,
        engine.rendezvous_sends,
    ]
}

fn measure(mpi: &MPI, call: impl FnOnce() -> MpiResult<()>) -> MpiResult<Pass> {
    let before = counters(mpi);
    call()?;
    let d: Vec<u64> = counters(mpi)
        .iter()
        .zip(before)
        .map(|(a, b)| a - b)
        .collect();
    Ok(Pass {
        bytes_in: d[0],
        bytes_out: d[1],
        bytes_copied: d[2],
        eager_sends: d[3],
        rendezvous_sends: d[4],
    })
}

/// An `MPI.OBJECT` element: its serialized size follows its length.
#[derive(Debug, Clone, PartialEq)]
struct Samples(Vec<f64>);

impl Serializable for Samples {
    fn write_object(&self, out: &mut ObjectOutputStream) {
        out.write(&self.0);
    }
    fn read_object(input: &mut ObjectInputStream<'_>) -> MpiResult<Self> {
        Ok(Samples(input.read()?))
    }
}

/// Run `call` from rank 0 to rank 1 with a `len`-byte payload. Returns
/// rank 0's pass, rank 1's pass and the payload bytes rank 1 received.
fn run(call: Call, marshal: MarshalMode, len: usize) -> (Pass, Pass, u64) {
    let jni = JniConfig {
        marshal,
        ..JniConfig::default()
    };
    let ranks = MpiRuntime::new(2)
        .eager_threshold(THRESHOLD)
        .jni(jni)
        .run(move |mpi| {
            let world = mpi.comm_world();
            let int = Datatype::int();
            let count = len / 4;
            let sent: Vec<i32> = (0..count as i32).map(|i| i * 7 - 3).collect();
            let objects = vec![Samples(vec![0.5; len / 8])];
            // `sent` at the even elements, its negation between them.
            let strided: Vec<i32> = sent.iter().flat_map(|&v| [v, -v]).collect();
            let every_other = Datatype::vector(count, 1, 2, &int)?;
            let mut recv = vec![0i32; count];
            let rank = world.rank()?;
            let peer = 1 - rank as i32;
            let mut received = 0;
            let pass = match (call, rank) {
                (Call::Sendrecv, _) => measure(mpi, || {
                    let status = world.sendrecv(
                        &sent, 0, count, &int, peer, TAG, &mut recv, 0, count, &int, peer, TAG,
                    )?;
                    received = status.count_bytes() as u64;
                    Ok(())
                })?,
                (Call::SendObject, 0) => {
                    measure(mpi, || world.send_object(&objects, 0, 1, 1, TAG))?
                }
                (Call::SendObject, _) => measure(mpi, || {
                    let (got, status) = world.recv_object::<Samples>(1, 0, TAG)?;
                    assert_eq!(got, objects);
                    received = status.count_bytes() as u64;
                    Ok(())
                })?,
                (Call::Send, 0) => measure(mpi, || world.send(&sent, 0, count, &int, 1, TAG))?,
                (Call::Isend, 0) => measure(mpi, || {
                    world.isend(&sent, 0, count, &int, 1, TAG)?.wait().map(drop)
                })?,
                (Call::Ssend, 0) => measure(mpi, || world.ssend(&sent, 0, count, &int, 1, TAG))?,
                (Call::Issend, 0) => measure(mpi, || {
                    world
                        .issend(&sent, 0, count, &int, 1, TAG)?
                        .wait()
                        .map(drop)
                })?,
                (Call::SendVector, 0) => {
                    measure(mpi, || world.send(&strided, 0, 1, &every_other, 1, TAG))?
                }
                (Call::SendBytes, 0) => measure(mpi, || {
                    use mpijava::rs::Communicator as _;
                    world.send_bytes(wire(&sent), 1, TAG)
                })?,
                (Call::IsendBytes, 0) => measure(mpi, || {
                    use mpijava::rs::Communicator as _;
                    world.isend_bytes(wire(&sent), 1, TAG)?.wait().map(drop)
                })?,
                (Call::Start, 0) => {
                    let mut request = world.send_init(&sent, 0, count, &int, 1, TAG)?;
                    let pass = measure(mpi, || {
                        request.start()?;
                        request.wait().map(drop)
                    })?;
                    request.free()?;
                    pass
                }
                (_, _) => measure(mpi, || {
                    let status = world.recv(&mut recv, 0, count, &int, 0, TAG)?;
                    received = status.count_bytes() as u64;
                    Ok(())
                })?,
            };
            if !matches!(call, Call::SendObject) && rank == 1 {
                assert_eq!(recv, sent, "{call:?}: payload");
            }
            Ok((pass, received))
        })
        .unwrap();
    (ranks[0].0, ranks[1].0, ranks[1].1)
}

/// The wire image of `values`, as an owned `Bytes`.
fn wire(values: &[i32]) -> bytes::Bytes {
    let image: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    image.into()
}

/// Check rank 0's pass of `call` against the module table, on every
/// mode and size; where rank 1 receives with a classic `Recv`, pin it too.
fn pin(call: Call) {
    for marshal in MODES {
        for len in SIZES {
            let (sender, receiver, received) = run(call, marshal, len);
            let row = format!("{call:?}, {marshal:?}, {len} B");
            let payload = match call {
                Call::SendObject => received,
                _ => len as u64,
            };
            assert_eq!(received, payload, "{row}: bytes delivered");
            // What crosses the boundary: the window a send reads (a
            // strided one spans `2 len - 4` bytes), and nothing for an
            // owned `Bytes`.
            let (bytes_in, dense) = match call {
                Call::SendObject => (payload, false),
                Call::SendVector => (2 * payload - 4, false),
                Call::SendBytes | Call::IsendBytes => (0, false),
                _ => (payload, true),
            };
            // A `Pin` dense send lends the caller's slice (its memory is
            // its wire image on a little-endian host), so the engine
            // stages it; everything else arrives owned and is sent as is.
            let lent = dense && marshal == MarshalMode::Pin && cfg!(target_endian = "little");
            let synchronous = matches!(call, Call::Ssend | Call::Issend);
            let rendezvous = synchronous || payload as usize > THRESHOLD;
            let sendrecv = matches!(call, Call::Sendrecv);
            let expected = Pass {
                bytes_in,
                // `Sendrecv` also stores the peer's message into its
                // window, a store the engine does not count.
                bytes_out: if sendrecv { payload } else { 0 },
                bytes_copied: if lent { payload } else { 0 },
                eager_sends: u64::from(!rendezvous),
                rendezvous_sends: u64::from(rendezvous),
            };
            assert_eq!(sender, expected, "{row}: sender");
            if !matches!(call, Call::SendObject | Call::Sendrecv) {
                let recv = Pass {
                    bytes_in: 0,
                    bytes_out: payload,
                    bytes_copied: payload,
                    eager_sends: 0,
                    rendezvous_sends: 0,
                };
                assert_eq!(receiver, recv, "{row}: classic Recv");
            }
        }
    }
}

#[test]
fn classic_send_copies() {
    pin(Call::Send);
}

#[test]
fn classic_isend_copies() {
    pin(Call::Isend);
}

#[test]
fn classic_ssend_copies() {
    pin(Call::Ssend);
}

#[test]
fn classic_issend_copies() {
    pin(Call::Issend);
}

#[test]
fn strided_vector_send_copies() {
    pin(Call::SendVector);
}

#[test]
fn rs_send_bytes_copies() {
    pin(Call::SendBytes);
}

#[test]
fn rs_isend_bytes_copies() {
    pin(Call::IsendBytes);
}

#[test]
fn classic_sendrecv_copies() {
    pin(Call::Sendrecv);
}

#[test]
fn prequest_start_copies() {
    pin(Call::Start);
}

#[test]
fn send_object_copies() {
    pin(Call::SendObject);
}

/// A classic `Send` / `Recv` of 1 MiB + 7 B of `BYTE` at the default
/// eager threshold: a streamed rendezvous whose last chunk is short.
/// Each rank's counters read as the module table says, in both modes.
#[test]
fn classic_send_of_an_odd_megabyte_streams_with_the_same_copies() {
    const LEN: usize = (1 << 20) + 7;
    for marshal in MODES {
        let jni = JniConfig {
            marshal,
            ..JniConfig::default()
        };
        let ranks = MpiRuntime::new(2)
            .eager_threshold(mpi_native::DEFAULT_EAGER_THRESHOLD)
            .jni(jni)
            .run(move |mpi| {
                let world = mpi.comm_world();
                let byte = Datatype::byte();
                let sent: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
                if world.rank()? == 0 {
                    measure(mpi, || world.send(&sent, 0, LEN, &byte, 1, TAG))
                } else {
                    let mut recv = vec![0u8; LEN];
                    let pass = measure(mpi, || {
                        world.recv(&mut recv, 0, LEN, &byte, 0, TAG).map(drop)
                    })?;
                    assert!(recv == sent, "{marshal:?}: payload");
                    Ok(pass)
                }
            })
            .unwrap();
        let len = LEN as u64;
        let sender = Pass {
            bytes_in: len,
            bytes_out: 0,
            bytes_copied: if marshal == MarshalMode::Pin { len } else { 0 },
            eager_sends: 0,
            rendezvous_sends: 1,
        };
        let receiver = Pass {
            bytes_in: 0,
            bytes_out: len,
            bytes_copied: len,
            eager_sends: 0,
            rendezvous_sends: 0,
        };
        assert_eq!(ranks, [sender, receiver], "{marshal:?}");
    }
}

/// The four forms of one `Allreduce`, each a separate call on the same
/// buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    Classic,
    Rs,
    Nonblocking,
    Persistent,
}

const FORMS: [Form; 4] = [Form::Classic, Form::Rs, Form::Nonblocking, Form::Persistent];

/// One `len`-byte `MPI.INT` `SUM` allreduce over 2 ranks in each form.
/// Returns, per rank, each form's `(bytes_in, bytes_out, bytes_copied)`.
fn allreduce_forms(marshal: MarshalMode, len: usize) -> Vec<Vec<(Form, [u64; 3])>> {
    use mpijava::rs::Communicator as _;
    let jni = JniConfig {
        marshal,
        ..JniConfig::default()
    };
    MpiRuntime::new(2)
        .eager_threshold(THRESHOLD)
        .jni(jni)
        .run(move |mpi| {
            let world = mpi.comm_world();
            let count = len / 4;
            let rank = world.rank()? as i32;
            let send: Vec<i32> = (0..count as i32).map(|i| i * 3 + rank).collect();
            let expected: Vec<i32> = (0..count as i32).map(|i| i * 6 + 1).collect();
            let mut passes = Vec::new();
            for form in FORMS {
                let mut recv = vec![0i32; count];
                let pass = measure(mpi, || match form {
                    Form::Classic => {
                        let sum = mpijava::Op::sum();
                        world.allreduce(&send, 0, &mut recv, 0, count, &Datatype::int(), &sum)
                    }
                    Form::Rs => world.all_reduce(&send, &mut recv, mpijava::Op::sum()),
                    Form::Nonblocking => {
                        let request = world.iall_reduce(&send, &mut recv, mpijava::Op::sum())?;
                        request.wait().map(drop)
                    }
                    Form::Persistent => {
                        let mut request =
                            world.all_reduce_init(&send, &mut recv, mpijava::Op::sum())?;
                        request.start()?;
                        request.wait()?;
                        request.free()
                    }
                })?;
                assert_eq!(recv, expected, "{form:?}, {marshal:?}, {len} B: result");
                passes.push((form, [pass.bytes_in, pass.bytes_out, pass.bytes_copied]));
            }
            mpi.finalize()?;
            Ok(passes)
        })
        .unwrap()
}

/// Every form of a collective crosses the boundary alike: the classic
/// `Allreduce`, the `rs` `all_reduce`, `iall_reduce` + `wait` and
/// `all_reduce_init` + `start`/`wait` each marshal the input in and the
/// result out once, and the engine copies the same bytes for all four.
#[test]
fn allreduce_forms_cross_the_boundary_alike() {
    for marshal in MODES {
        for len in SIZES {
            for (rank, passes) in allreduce_forms(marshal, len).iter().enumerate() {
                let (_, first) = passes[0];
                for &(form, pass) in passes {
                    let row = format!("{form:?}, {marshal:?}, {len} B, rank {rank}");
                    assert_eq!(pass, first, "{row}: against the classic form");
                    assert_eq!(
                        pass[..2],
                        [len as u64; 2],
                        "{row}: jni.bytes_in / bytes_out"
                    );
                }
            }
        }
    }
}
