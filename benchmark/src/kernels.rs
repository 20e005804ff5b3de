//! What each rank does in one window, at every level of the stack.
//!
//! A kernel times only the calls into the layer under test (`Meter::end`)
//! and verifies every result outside that interval. Classic-surface code
//! lives at the top of this file; everything that imports the
//! `rs::Communicator` trait (which shadows the classic method names) is
//! confined to [`rs_surface`].

use std::time::Instant;

use bytes::Bytes;
use mpi_native::{PredefinedOp, PrimitiveKind, SendMode, COMM_WORLD};
use mpi_transport::{Endpoint, Frame, FrameHeader, FrameKind};
use mpijava::{Datatype, Intracomm, MpiResult, Op, MPI};

use crate::harness::{sum64, sum64_i32, Meter, Rng};

pub use rs_surface::{Jacobi, JacobiShape, Stream, StreamSync, STREAM_BATCH};

const TAG_PING: i32 = 1;
const TAG_PONG: i32 = 2;
const TAG_XCHG: i32 = 3;

/// Which public interface a kernel drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Api {
    /// `mpi_native::Engine`, below the binding.
    Engine,
    /// The paper-faithful Java-style surface (through the `jni` boundary).
    Classic,
    /// The idiomatic `mpijava::rs` surface.
    Rs,
}

/// One rank's share of a pass.
pub trait Kernel {
    /// Run one window of operations.
    fn window(&mut self, m: &mut Meter) -> MpiResult<()>;
    /// Collective end-of-pass verification (default: nothing left to check).
    fn finish(&mut self, _m: &mut Meter) -> MpiResult<()> {
        Ok(())
    }
}

/// Overwrite the first `min(8, len)` bytes with the operation number, so
/// that a stale buffer from the previous operation cannot pass the check.
fn stamp(buf: &mut [u8], seq: u64) -> usize {
    let head = buf.len().min(8);
    buf[..head].copy_from_slice(&seq.to_le_bytes()[..head]);
    head
}

// ---------------------------------------------------------------------
// Transport: raw frame echo over the device, no MPI above it
// ---------------------------------------------------------------------

/// `Endpoint::send` / `recv` frame echo (the paper's `Wsock` row).
pub struct Echo {
    endpoint: Box<dyn Endpoint>,
    payload: Bytes,
    want: u64,
    pairs: u64,
}

impl Echo {
    pub fn new(endpoint: Box<dyn Endpoint>, size: usize, seed: u64, pairs: u64) -> Echo {
        let payload = Bytes::from(Rng::new(seed, 1).bytes(size));
        Echo {
            want: sum64(&payload),
            endpoint,
            payload,
            pairs,
        }
    }

    fn frame(&self, payload: Bytes) -> Frame {
        let rank = self.endpoint.rank() as u32;
        Frame::new(
            FrameHeader {
                kind: FrameKind::Eager,
                src: rank,
                dst: 1 - rank,
                tag: 0,
                context: 0,
                token: 0,
                msg_len: payload.len() as u64,
            },
            payload,
        )
    }
}

impl Kernel for Echo {
    fn window(&mut self, m: &mut Meter) -> MpiResult<()> {
        let transport = |e| mpijava::MPIException::from(mpi_native::MpiError::from(e));
        for _ in 0..self.pairs {
            if self.endpoint.rank() == 0 {
                let out = self.frame(self.payload.clone());
                let t = Instant::now();
                self.endpoint.send(out).map_err(transport)?;
                let back = self.endpoint.recv().map_err(transport)?;
                m.end(t, Instant::now(), 2);
                m.check(sum64(&back.payload), self.want);
            } else {
                let frame = self.endpoint.recv().map_err(transport)?;
                self.endpoint
                    .send(self.frame(frame.payload))
                    .map_err(transport)?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Point-to-point ping-pong
// ---------------------------------------------------------------------

/// Send `size` bytes to rank 1 and wait for the echo; one operation is
/// one one-way message (half a round trip), as in the paper's Table 1.
pub struct PingPong<'a> {
    mpi: &'a MPI,
    world: Intracomm,
    api: Api,
    rank: usize,
    sbuf: Vec<u8>,
    rbuf: Vec<u8>,
    /// [`sum64`] of the payload behind the stamp.
    rest_sum: u64,
    seq: u64,
    pairs: u64,
}

impl<'a> PingPong<'a> {
    pub fn new(
        mpi: &'a MPI,
        api: Api,
        size: usize,
        seed: u64,
        pairs: u64,
    ) -> MpiResult<PingPong<'a>> {
        let world = mpi.comm_world();
        let sbuf = Rng::new(seed, 1).bytes(size);
        Ok(PingPong {
            rank: world.rank()?,
            rest_sum: sum64(&sbuf[size.min(8)..]),
            rbuf: vec![0; size],
            mpi,
            world,
            api,
            sbuf,
            seq: 0,
            pairs,
        })
    }

    /// Rank 0: one timed round trip; returns the echo's checksum.
    fn round_trip(&mut self, m: &mut Meter) -> MpiResult<u64> {
        let n = self.sbuf.len();
        let byte = Datatype::byte();
        let t = Instant::now();
        match self.api {
            Api::Engine => self
                .mpi
                .with_engine(|e| e.send(COMM_WORLD, 1, TAG_PING, &self.sbuf, SendMode::Standard))?,
            Api::Classic => self.world.send(&self.sbuf, 0, n, &byte, 1, TAG_PING)?,
            Api::Rs => rs_surface::send(&self.world, &self.sbuf, 1, TAG_PING)?,
        }
        let mid = Instant::now();
        // The engine hands back the transport's own buffer; the two
        // surfaces fill `rbuf`.
        let data = match self.api {
            Api::Engine => Some(
                self.mpi
                    .with_engine(|e| e.recv(COMM_WORLD, 1, TAG_PONG, None))?
                    .0,
            ),
            Api::Classic => {
                self.world.recv(&mut self.rbuf, 0, n, &byte, 1, TAG_PONG)?;
                None
            }
            Api::Rs => {
                rs_surface::recv_into(&self.world, &mut self.rbuf, 1, TAG_PONG)?;
                None
            }
        };
        let end = Instant::now();
        m.child("send", t, mid);
        m.child("recv", mid, end);
        m.end(t, end, 2);
        Ok(sum64(data.as_deref().unwrap_or(&self.rbuf)))
    }

    /// Rank 1: receive and send the same bytes back.
    fn echo(&mut self) -> MpiResult<()> {
        let n = self.rbuf.len();
        let byte = Datatype::byte();
        match self.api {
            Api::Engine => self.mpi.with_engine(|e| -> MpiResult<()> {
                let (data, _) = e.recv(COMM_WORLD, 0, TAG_PING, None)?;
                Ok(e.send(COMM_WORLD, 0, TAG_PONG, &data, SendMode::Standard)?)
            }),
            Api::Classic => {
                self.world.recv(&mut self.rbuf, 0, n, &byte, 0, TAG_PING)?;
                self.world.send(&self.rbuf, 0, n, &byte, 0, TAG_PONG)
            }
            Api::Rs => {
                rs_surface::recv_into(&self.world, &mut self.rbuf, 0, TAG_PING)?;
                rs_surface::send(&self.world, &self.rbuf, 0, TAG_PONG)
            }
        }
    }
}

impl Kernel for PingPong<'_> {
    fn window(&mut self, m: &mut Meter) -> MpiResult<()> {
        for _ in 0..self.pairs {
            if self.rank == 0 {
                self.seq += 1;
                let head = stamp(&mut self.sbuf, self.seq);
                let want = self.rest_sum.wrapping_add(sum64(&self.sbuf[..head]));
                let got = self.round_trip(m)?;
                m.check(got, want);
            } else {
                self.echo()?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Allreduce
// ---------------------------------------------------------------------

/// How an [`Allreduce`] kernel produces the reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollApi {
    /// The same exchange hand-built from `Engine::sendrecv` and a local
    /// fold with the engine's own `Op::apply` (two ranks only): what an
    /// allreduce costs without the schedule executor.
    Exchange,
    /// `Engine::allreduce` / the two binding surfaces.
    Through(Api),
}

/// `count` `MPI.INT` SUM allreduce; one operation is one allreduce.
pub struct Allreduce<'a> {
    mpi: &'a MPI,
    world: Intracomm,
    api: CollApi,
    rank: usize,
    size: usize,
    send: Vec<i32>,
    /// Little-endian image of `send`, for the engine-level calls.
    send_bytes: Vec<u8>,
    recv: Vec<i32>,
    /// Element 1 and the checksum of elements 2.. of the expected sum.
    want_1: i32,
    want_rest: u64,
    seq: u64,
    ops: u64,
}

/// Operands stay below 2^20 so that a sum over a few ranks cannot
/// overflow `i32` (the engine's fold would panic in a debug build).
fn operand(raw: u64) -> i32 {
    (raw & 0x1F_FFFF) as i32 - (1 << 20)
}

/// Element 0 of rank `rank`'s operand for operation `seq`.
fn stamp_value(seq: u64, rank: usize) -> i32 {
    operand(seq.wrapping_mul(2 * rank as u64 + 1))
}

impl<'a> Allreduce<'a> {
    pub fn new(
        mpi: &'a MPI,
        api: CollApi,
        count: usize,
        seed: u64,
        ops: u64,
    ) -> MpiResult<Allreduce<'a>> {
        let world = mpi.comm_world();
        let (rank, size) = (world.rank()?, world.size()?);
        let operands = |r: usize| -> Vec<i32> {
            let mut rng = Rng::new(seed, 100 + r as u64);
            (0..count).map(|_| operand(rng.next_u64())).collect()
        };
        let mut want = vec![0i32; count];
        for r in 0..size {
            for (w, a) in want.iter_mut().zip(operands(r)) {
                *w += a;
            }
        }
        let send = operands(rank);
        Ok(Allreduce {
            send_bytes: send.iter().flat_map(|v| v.to_le_bytes()).collect(),
            recv: vec![0; count],
            want_1: want.get(1).copied().unwrap_or(0),
            want_rest: sum64_i32(&want[count.min(2)..]),
            mpi,
            world,
            api,
            rank,
            size,
            send,
            seq: 0,
            ops,
        })
    }

    fn expected(&self) -> u64 {
        let want_0: i32 = (0..self.size).map(|r| stamp_value(self.seq, r)).sum();
        let head = [want_0, self.want_1];
        self.want_rest
            .wrapping_add(sum64_i32(&head[..self.send.len().min(2)]))
    }

    fn reduce_once(&mut self, m: &mut Meter) -> MpiResult<u64> {
        let count = self.send.len();
        let sum = mpi_native::Op::Predefined(PredefinedOp::Sum);
        let t = Instant::now();
        Ok(match self.api {
            CollApi::Exchange => {
                let peer = 1 - self.rank as i32;
                let out = self.mpi.with_engine(|e| -> MpiResult<Vec<u8>> {
                    let (theirs, _) = e.sendrecv(
                        COMM_WORLD,
                        peer,
                        TAG_XCHG,
                        &self.send_bytes,
                        peer,
                        TAG_XCHG,
                        None,
                    )?;
                    let mut acc = self.send_bytes.clone();
                    sum.apply(&theirs, &mut acc, PrimitiveKind::Int, count)?;
                    Ok(acc)
                })?;
                m.end(t, Instant::now(), 1);
                sum64(&out)
            }
            CollApi::Through(Api::Engine) => {
                let out = self.mpi.with_engine(|e| {
                    e.allreduce(
                        COMM_WORLD,
                        &self.send_bytes,
                        PrimitiveKind::Int,
                        count,
                        &sum,
                    )
                })?;
                m.end(t, Instant::now(), 1);
                sum64(&out)
            }
            CollApi::Through(Api::Classic) => {
                self.world.allreduce(
                    &self.send,
                    0,
                    &mut self.recv,
                    0,
                    count,
                    &Datatype::int(),
                    &Op::sum(),
                )?;
                m.end(t, Instant::now(), 1);
                sum64_i32(&self.recv)
            }
            CollApi::Through(Api::Rs) => {
                rs_surface::all_reduce_sum(&self.world, &self.send, &mut self.recv)?;
                m.end(t, Instant::now(), 1);
                sum64_i32(&self.recv)
            }
        })
    }
}

impl Kernel for Allreduce<'_> {
    fn window(&mut self, m: &mut Meter) -> MpiResult<()> {
        for _ in 0..self.ops {
            self.seq += 1;
            let mine = stamp_value(self.seq, self.rank);
            self.send[0] = mine;
            self.send_bytes[..4].copy_from_slice(&mine.to_le_bytes());
            let got = self.reduce_once(m)?;
            m.check(got, self.expected());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Everything that speaks the idiomatic surface
// ---------------------------------------------------------------------

mod rs_surface {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    use mpijava::rs::{CartCommunicator as _, Communicator as _, TypedRequest};
    use mpijava::{Cartcomm, Intracomm, MpiResult, Op, MPI};

    use super::Kernel;
    use crate::harness::{spin_until, sum64, Meter, Rng};

    const TAG_DATA: i32 = 10;
    const TAG_ACK: i32 = 11;
    const TAG_UP: i32 = 20;
    const TAG_DOWN: i32 = 21;

    pub fn send(world: &Intracomm, buf: &[u8], dest: i32, tag: i32) -> MpiResult<()> {
        world.send(buf, dest, tag)
    }

    pub fn recv_into(world: &Intracomm, buf: &mut [u8], src: i32, tag: i32) -> MpiResult<()> {
        world.recv_into(buf, src, tag).map(drop)
    }

    pub fn all_reduce_sum(world: &Intracomm, send: &[i32], recv: &mut [i32]) -> MpiResult<()> {
        world.all_reduce(send, recv, Op::sum())
    }

    /// Bytes per streamed message and messages per batch.
    const STREAM_MSG: usize = 64;
    pub const STREAM_BATCH: usize = 256;

    /// Batch hand-offs between the two ranks of the stream, outside MPI,
    /// so that a batch's only MPI traffic is its 256 messages and one ack
    /// and the receiver never sits parked in the library while messages
    /// arrive (a parked receiver costs the sender a wake per message,
    /// and whether it is parked is a race).
    #[derive(Default)]
    pub struct StreamSync {
        /// Batches the receiver is ready for.
        ready: AtomicU64,
        /// Batches the sender has completely sent.
        sent: AtomicU64,
    }

    fn await_count(counter: &AtomicU64, target: u64) {
        spin_until(|| counter.load(Ordering::Acquire) >= target);
    }

    /// Rank 0 streams batches of 256 nonblocking 64-byte sends, rank 1
    /// answers each batch with one ack carrying the checksum of what it
    /// received. In even batches every receive is posted before the first
    /// send and matched once the batch has been sent (posted-queue hits);
    /// in odd batches the receiver first lets the engine see the whole
    /// batch and posts afterwards (unexpected-queue hits). One operation
    /// is one message; the time is the sender's, hand-off to ack.
    pub struct Stream<'a> {
        world: Intracomm,
        rank: usize,
        sync: &'a StreamSync,
        /// Counter values when this pass began.
        base: (u64, u64),
        block: Vec<u8>,
        batch: u64,
        batches: u64,
    }

    impl<'a> Stream<'a> {
        /// Collective: both ranks read the counters before either moves them.
        pub fn new(
            mpi: &MPI,
            sync: &'a StreamSync,
            seed: u64,
            batches: u64,
        ) -> MpiResult<Stream<'a>> {
            let world = mpi.comm_world();
            let base = (
                sync.ready.load(Ordering::Acquire),
                sync.sent.load(Ordering::Acquire),
            );
            world.barrier()?;
            Ok(Stream {
                rank: world.rank()?,
                block: Rng::new(seed, 2).bytes(STREAM_MSG * STREAM_BATCH),
                world,
                sync,
                base,
                batch: 0,
                batches,
            })
        }

        fn produce(&mut self, m: &mut Meter) -> MpiResult<()> {
            for (i, msg) in self.block.chunks_exact_mut(STREAM_MSG).enumerate() {
                super::stamp(msg, self.batch * STREAM_BATCH as u64 + i as u64);
            }
            let want = sum64(&self.block);
            let mut ack = [0i64];
            let t = Instant::now();
            await_count(&self.sync.ready, self.base.0 + self.batch + 1);
            let posted = self
                .block
                .chunks_exact(STREAM_MSG)
                .map(|msg| self.world.isend(msg, 1, TAG_DATA))
                .collect::<MpiResult<Vec<_>>>()?;
            let mid = Instant::now();
            TypedRequest::wait_all(posted)?;
            self.sync.sent.fetch_add(1, Ordering::Release);
            self.world.recv_into(&mut ack, 1, TAG_ACK)?;
            let end = Instant::now();
            m.child("post", t, mid);
            m.child("wait", mid, end);
            m.end(t, end, STREAM_BATCH as u64);
            m.check_n(STREAM_BATCH as u64, ack[0] as u64, want);
            Ok(())
        }

        fn consume(&mut self, prepost: bool) -> MpiResult<()> {
            let sent = self.base.1 + self.batch + 1;
            if !prepost {
                self.sync.ready.fetch_add(1, Ordering::Release);
                await_count(&self.sync.sent, sent);
                // One progress call moves the whole batch from the
                // device into the engine's unexpected queue.
                self.world.iprobe(0, TAG_DATA)?;
            }
            let posted = self
                .block
                .chunks_exact_mut(STREAM_MSG)
                .map(|slot| self.world.irecv_into(slot, 0, TAG_DATA))
                .collect::<MpiResult<Vec<_>>>()?;
            if prepost {
                self.sync.ready.fetch_add(1, Ordering::Release);
                await_count(&self.sync.sent, sent);
            }
            TypedRequest::wait_all(posted)?;
            self.world.send(&[sum64(&self.block) as i64], 0, TAG_ACK)
        }
    }

    impl Kernel for Stream<'_> {
        fn window(&mut self, m: &mut Meter) -> MpiResult<()> {
            for _ in 0..self.batches {
                if self.rank == 0 {
                    self.produce(m)?;
                } else {
                    self.consume(self.batch.is_multiple_of(2))?;
                }
                self.batch += 1;
            }
            Ok(())
        }
    }

    /// Grid and verification sizes of the Jacobi workload.
    #[derive(Debug, Clone, Copy)]
    pub struct JacobiShape {
        /// The global grid is `n` x `n`, outermost rows and columns fixed.
        pub n: usize,
        /// Steps after which the field is compared with the serial reference.
        pub verify_steps: u64,
        /// Steps between residual allreduces.
        pub residual_every: u64,
    }

    /// One row of the 5-point Jacobi update; returns the row's squared
    /// change. Shared by the serial reference and the ranks, so the two
    /// perform bit-identical arithmetic.
    fn relax_row(above: &[f64], row: &[f64], below: &[f64], out: &mut [f64]) -> f64 {
        let n = row.len();
        let mut change = 0.0;
        for j in 1..n - 1 {
            let v = 0.25 * (above[j] + below[j] + row[j - 1] + row[j + 1]);
            change += (v - row[j]) * (v - row[j]);
            out[j] = v;
        }
        change
    }

    /// Relax rows `1..rows-1` of `cur` (`rows` x `n`) into `next`.
    fn relax(cur: &[f64], next: &mut [f64], n: usize) -> f64 {
        let rows = cur.len() / n;
        (1..rows - 1)
            .map(|r| {
                let (above, rest) = cur[(r - 1) * n..(r + 2) * n].split_at(n);
                let (row, below) = rest.split_at(n);
                relax_row(above, row, below, &mut next[r * n..(r + 1) * n])
            })
            .sum()
    }

    fn field_sum(values: &[f64]) -> u64 {
        values
            .iter()
            .fold(0u64, |acc, v| acc.wrapping_add(v.to_bits()))
    }

    impl JacobiShape {
        /// The seeded initial field.
        pub fn initial_field(&self, seed: u64) -> Vec<f64> {
            let mut rng = Rng::new(seed, 3);
            (0..self.n * self.n).map(|_| rng.unit_f64()).collect()
        }

        /// Plain single-threaded Jacobi: the field after `verify_steps`
        /// steps and the mean time of one step in microseconds.
        pub fn serial_reference(&self, seed: u64) -> (Vec<f64>, f64) {
            let mut cur = self.initial_field(seed);
            let mut next = cur.clone();
            let t = Instant::now();
            for _ in 0..self.verify_steps {
                std::hint::black_box(relax(&cur, &mut next, self.n));
                std::mem::swap(&mut cur, &mut next);
            }
            let step_us = t.elapsed().as_secs_f64() * 1e6 / self.verify_steps as f64;
            (cur, step_us)
        }
    }

    /// Jacobi relaxation on horizontal strips of a `Cartcomm`, `sendrecv`
    /// halo rows every step; one operation is one step.
    pub struct Jacobi<'a> {
        shape: JacobiShape,
        cart: Cartcomm,
        up: i32,
        down: i32,
        /// Strip with one halo row above and below: `(rows + 2) * n`.
        cur: Vec<f64>,
        next: Vec<f64>,
        /// Rows of the serial reference this rank owns.
        reference: &'a [f64],
        step: u64,
        verified_to: u64,
        steps: u64,
    }

    impl<'a> Jacobi<'a> {
        pub fn new(
            mpi: &MPI,
            shape: JacobiShape,
            seed: u64,
            reference: &'a [f64],
            steps: u64,
        ) -> MpiResult<Jacobi<'a>> {
            let world = mpi.comm_world();
            let ranks = world.size()?;
            let cart = world
                .create_cart(&[ranks], &[false], false)?
                .expect("every rank is in the 1-D grid");
            let (up, down) = cart.cart_shift(0, 1)?;
            let n = shape.n;
            let rows = n / ranks;
            let first = cart.rank()? * rows;
            // Halo rows start as copies of the neighbours' rows (of the
            // own edge row at the global boundary, where none is read).
            let field = shape.initial_field(seed);
            let row = |g: usize| &field[g.min(n - 1) * n..(g.min(n - 1) + 1) * n];
            let mut cur = Vec::with_capacity((rows + 2) * n);
            cur.extend_from_slice(row(first.saturating_sub(1)));
            cur.extend_from_slice(&field[first * n..(first + rows) * n]);
            cur.extend_from_slice(row(first + rows));
            Ok(Jacobi {
                shape,
                cart,
                up,
                down,
                next: cur.clone(),
                cur,
                reference: &reference[first * n..(first + rows) * n],
                step: 0,
                verified_to: 0,
                steps,
            })
        }

        fn exchange(&mut self) -> MpiResult<()> {
            let n = self.shape.n;
            let owned = self.cur.len() - 2 * n;
            let (top, rest) = self.cur.split_at_mut(n);
            let (mine, bottom) = rest.split_at_mut(owned);
            self.cart
                .sendrecv(&mine[..n], self.up, TAG_UP, bottom, self.down, TAG_UP)?;
            self.cart.sendrecv(
                &mine[owned - n..],
                self.down,
                TAG_DOWN,
                top,
                self.up,
                TAG_DOWN,
            )?;
            Ok(())
        }

        /// Relax the owned rows. A strip at the global boundary leaves
        /// its unused halo out, which makes its fixed edge row the first
        /// (or last) row of the slice, where `relax` only reads.
        fn compute(&mut self) -> f64 {
            let n = self.shape.n;
            let rows = self.cur.len() / n;
            let lo = if self.up < 0 { n } else { 0 };
            let hi = if self.down < 0 {
                (rows - 1) * n
            } else {
                rows * n
            };
            let change = relax(&self.cur[lo..hi], &mut self.next[lo..hi], n);
            std::mem::swap(&mut self.cur, &mut self.next);
            change
        }

        fn owned(&self) -> &[f64] {
            let n = self.shape.n;
            &self.cur[n..self.cur.len() - n]
        }
    }

    impl Kernel for Jacobi<'_> {
        fn window(&mut self, m: &mut Meter) -> MpiResult<()> {
            for _ in 0..self.steps {
                let t = Instant::now();
                self.exchange()?;
                let exchanged = Instant::now();
                let change = self.compute();
                let computed = Instant::now();
                self.step += 1;
                let mut end = computed;
                if self.step.is_multiple_of(self.shape.residual_every) {
                    let mut total = [0.0f64];
                    self.cart.all_reduce(&[change], &mut total, Op::sum())?;
                    end = Instant::now();
                    m.child("residual", computed, end);
                    if !total[0].is_finite() {
                        m.fail_all();
                    }
                }
                m.child("exchange", t, exchanged);
                m.child("compute", exchanged, computed);
                let comm = (exchanged - t) + (end - computed);
                m.end_split(t, end, 1, comm.as_nanos() as u64);
                if self.step == self.shape.verify_steps {
                    m.check_n(
                        self.step,
                        field_sum(self.owned()),
                        field_sum(self.reference),
                    );
                    self.verified_to = self.step;
                }
            }
            Ok(())
        }

        /// After the last step the ranks must still agree on the rows
        /// they share: exchange halos once more and compare each halo's
        /// checksum with the checksum its owner computed.
        fn finish(&mut self, m: &mut Meter) -> MpiResult<()> {
            if self.step < self.shape.verify_steps {
                // Too short a pass to reach the reference comparison.
                m.check_n(self.step, 0, 1);
                return Ok(());
            }
            self.exchange()?;
            let n = self.shape.n;
            let owned = self.owned();
            let (first, last) = (
                field_sum(&owned[..n]) as i64,
                field_sum(&owned[owned.len() - n..]) as i64,
            );
            let (mut from_up, mut from_down) = ([0i64], [0i64]);
            self.cart
                .sendrecv(&[first], self.up, TAG_UP, &mut from_down, self.down, TAG_UP)?;
            self.cart.sendrecv(
                &[last],
                self.down,
                TAG_DOWN,
                &mut from_up,
                self.up,
                TAG_DOWN,
            )?;
            let mut got = 0u64;
            let mut want = 0u64;
            if self.up >= 0 {
                got = got.wrapping_add(field_sum(&self.cur[..n]));
                want = want.wrapping_add(from_up[0] as u64);
            }
            if self.down >= 0 {
                got = got.wrapping_add(field_sum(&self.cur[self.cur.len() - n..]));
                want = want.wrapping_add(from_down[0] as u64);
            }
            m.check_n(self.step - self.verified_to, got, want);
            Ok(())
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn relax_keeps_the_boundary_and_averages_the_interior() {
            let n = 4;
            let cur: Vec<f64> = (0..16).map(f64::from).collect();
            let mut next = cur.clone();
            let change = relax(&cur, &mut next, n);
            // Interior of an affine field is a fixed point of the stencil.
            assert_eq!(next, cur);
            assert_eq!(change, 0.0);
            let mut bumped = cur.clone();
            bumped[5] += 4.0;
            relax(&bumped, &mut next, n);
            assert_eq!(next[5], 5.0);
            assert_eq!(next[6], 7.0);
            assert_eq!(next[0], 0.0);
        }
    }
}
