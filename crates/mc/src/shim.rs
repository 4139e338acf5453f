//! Drop-in shims for the primitives the hts hot paths are built from.
//!
//! Outside a model-checked execution every operation passes straight
//! through to `std` with the caller's `Ordering` — the shims are inert
//! (one thread-local read of overhead), so enabling the `model-check`
//! feature in a consumer crate does not change test behavior. Inside an
//! execution every operation first yields to the controlled scheduler,
//! records the `Ordering` the call site wrote, and then executes
//! sequentially consistently. Exploration is over SC interleavings;
//! weak-memory reorderings are out of scope (the L7 lint is what keeps
//! the orderings themselves reviewed).

use std::cell::UnsafeCell as StdUnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

use crate::exec::{ctx, set_ctx, AccKind, Execution, McAbort, Op};

fn order_name(o: Ordering) -> &'static str {
    match o {
        Ordering::Relaxed => "Relaxed",
        Ordering::Acquire => "Acquire",
        Ordering::Release => "Release",
        Ordering::AcqRel => "AcqRel",
        Ordering::SeqCst => "SeqCst",
        _ => "?",
    }
}

fn payload_msg(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

macro_rules! mc_atomic_common {
    ($Name:ident, $Std:ident, $Raw:ty, $ty_label:expr) => {
        /// Model-checked shim for
        #[doc = concat!("`std::sync::atomic::", stringify!($Std), "`.")]
        #[derive(Debug, Default)]
        pub struct $Name {
            inner: std::sync::atomic::$Std,
        }

        impl $Name {
            pub const fn new(v: $Raw) -> Self {
                $Name {
                    inner: std::sync::atomic::$Std::new(v),
                }
            }

            fn addr(&self) -> usize {
                self as *const _ as usize
            }

            fn yield_acc(&self, acc: AccKind, order: Ordering) -> Option<()> {
                let (exec, me) = ctx()?;
                exec.atomic_op(
                    me,
                    Op {
                        acc,
                        ty: $ty_label,
                        addr: self.addr(),
                        order: order_name(order),
                    },
                );
                Some(())
            }

            pub fn load(&self, order: Ordering) -> $Raw {
                match self.yield_acc(AccKind::Load, order) {
                    Some(()) => self.inner.load(Ordering::SeqCst),
                    None => self.inner.load(order),
                }
            }

            pub fn store(&self, v: $Raw, order: Ordering) {
                match self.yield_acc(AccKind::Store, order) {
                    Some(()) => self.inner.store(v, Ordering::SeqCst),
                    None => self.inner.store(v, order),
                }
            }

            pub fn swap(&self, v: $Raw, order: Ordering) -> $Raw {
                match self.yield_acc(AccKind::Rmw, order) {
                    Some(()) => self.inner.swap(v, Ordering::SeqCst),
                    None => self.inner.swap(v, order),
                }
            }

            pub fn compare_exchange(
                &self,
                current: $Raw,
                new: $Raw,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$Raw, $Raw> {
                match self.yield_acc(AccKind::Rmw, success) {
                    Some(()) => self.inner.compare_exchange(
                        current,
                        new,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    ),
                    None => self.inner.compare_exchange(current, new, success, failure),
                }
            }

            pub fn compare_exchange_weak(
                &self,
                current: $Raw,
                new: $Raw,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$Raw, $Raw> {
                // The strong variant under control: spurious failure is a
                // hardware artifact, not an interleaving.
                match self.yield_acc(AccKind::Rmw, success) {
                    Some(()) => self.inner.compare_exchange(
                        current,
                        new,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    ),
                    None => self
                        .inner
                        .compare_exchange_weak(current, new, success, failure),
                }
            }

            pub fn into_inner(self) -> $Raw {
                self.inner.into_inner()
            }

            pub fn get_mut(&mut self) -> &mut $Raw {
                self.inner.get_mut()
            }
        }
    };
}

macro_rules! mc_atomic_num {
    ($Name:ident) => {
        impl $Name {
            pub fn fetch_add(
                &self,
                v: <Self as McAtomicRaw>::Raw,
                order: Ordering,
            ) -> <Self as McAtomicRaw>::Raw {
                match self.yield_acc(AccKind::Rmw, order) {
                    Some(()) => self.inner.fetch_add(v, Ordering::SeqCst),
                    None => self.inner.fetch_add(v, order),
                }
            }

            pub fn fetch_sub(
                &self,
                v: <Self as McAtomicRaw>::Raw,
                order: Ordering,
            ) -> <Self as McAtomicRaw>::Raw {
                match self.yield_acc(AccKind::Rmw, order) {
                    Some(()) => self.inner.fetch_sub(v, Ordering::SeqCst),
                    None => self.inner.fetch_sub(v, order),
                }
            }

            pub fn fetch_max(
                &self,
                v: <Self as McAtomicRaw>::Raw,
                order: Ordering,
            ) -> <Self as McAtomicRaw>::Raw {
                match self.yield_acc(AccKind::Rmw, order) {
                    Some(()) => self.inner.fetch_max(v, Ordering::SeqCst),
                    None => self.inner.fetch_max(v, order),
                }
            }
        }
    };
}

/// Raw-value association for the numeric shim macro.
pub trait McAtomicRaw {
    type Raw;
}

macro_rules! mc_atomic_raw {
    ($Name:ident, $Raw:ty) => {
        impl McAtomicRaw for $Name {
            type Raw = $Raw;
        }
    };
}

mc_atomic_common!(McAtomicU64, AtomicU64, u64, "u64");
mc_atomic_common!(McAtomicI64, AtomicI64, i64, "i64");
mc_atomic_raw!(McAtomicU64, u64);
mc_atomic_raw!(McAtomicI64, i64);
mc_atomic_num!(McAtomicU64);
mc_atomic_num!(McAtomicI64);

/// Model-checked `UnsafeCell`: accesses go through `with`/`with_mut`,
/// which bracket the access in begin/end schedule steps so the explorer
/// can observe (and fail on) overlapping conflicting windows — this is
/// how torn seqlock reads are caught without real torn memory.
#[derive(Debug, Default)]
pub struct McUnsafeCell<T> {
    inner: StdUnsafeCell<T>,
}

impl<T> McUnsafeCell<T> {
    pub const fn new(v: T) -> Self {
        McUnsafeCell {
            inner: StdUnsafeCell::new(v),
        }
    }

    fn addr(&self) -> usize {
        self as *const _ as usize
    }

    /// Shared (read) access.
    ///
    /// # Safety contract
    /// Same as a raw `UnsafeCell::get` read: the caller's protocol must
    /// keep writers out while reading. Under model checking that claim
    /// is *checked* across every explored interleaving.
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        match ctx() {
            Some((exec, me)) => {
                exec.cell_begin(me, self.addr(), "cell", false);
                let r = f(self.inner.get());
                exec.cell_end(me, self.addr(), "cell", false);
                r
            }
            None => f(self.inner.get()),
        }
    }

    /// Exclusive (write) access; see [`Self::with`].
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        match ctx() {
            Some((exec, me)) => {
                exec.cell_begin(me, self.addr(), "cell", true);
                let r = f(self.inner.get());
                exec.cell_end(me, self.addr(), "cell", true);
                r
            }
            None => f(self.inner.get()),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

/// Model-checked mutex. The lock *state* lives in the scheduler during
/// an execution (so blocking parks on the scheduler, not the OS); the
/// protected data still lives in a real `std::sync::Mutex`, which the
/// scheduler's exclusivity makes uncontended.
#[derive(Debug, Default)]
pub struct McMutex<T> {
    inner: StdMutex<T>,
}

pub struct McMutexGuard<'a, T> {
    lock: &'a McMutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
    controlled: bool,
}

impl<T> McMutex<T> {
    pub const fn new(v: T) -> Self {
        McMutex {
            inner: StdMutex::new(v),
        }
    }

    fn addr(&self) -> usize {
        self as *const _ as usize
    }

    /// Poison-recovering lock (a panicking holder already aborted the
    /// run that mattered).
    pub fn lock(&self) -> McMutexGuard<'_, T> {
        match ctx() {
            Some((exec, me)) => {
                exec.lock_acquire(me, self.addr());
                let g = self
                    .inner
                    .try_lock()
                    .expect("scheduler-held mc mutex is uncontended");
                McMutexGuard {
                    lock: self,
                    inner: Some(g),
                    controlled: true,
                }
            }
            None => McMutexGuard {
                lock: self,
                inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
                controlled: false,
            },
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> std::ops::Deref for McMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the std guard")
    }
}

impl<T> std::ops::DerefMut for McMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the std guard")
    }
}

impl<T> Drop for McMutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the data lock first, then the model lock; no other
        // thread can run in between.
        self.inner.take();
        if self.controlled {
            if let Some((exec, me)) = ctx() {
                exec.lock_release(me, self.lock.addr());
            }
        }
    }
}

impl<'a, T> McMutexGuard<'a, T> {
    /// Drop the real guard *without* releasing the model lock — condvar
    /// wait hands the release to the scheduler atomically.
    fn defuse(mut self) -> &'a McMutex<T> {
        self.inner.take();
        self.controlled = false;
        self.lock
    }
}

/// Model-checked condvar. Wake order is FIFO (std leaves it
/// unspecified) so schedules stay deterministic; `wait_timeout`'s
/// timeout is a *scheduling choice*, never a clock read — the explorer
/// decides at each step whether the timer "fires".
#[derive(Debug, Default)]
pub struct McCondvar {
    inner: StdCondvar,
    /// Gives the condvar a stable address of its own even when the
    /// struct would otherwise be zero-sized inside a parent.
    _anchor: u8,
}

impl McCondvar {
    pub const fn new() -> Self {
        McCondvar {
            inner: StdCondvar::new(),
            _anchor: 0,
        }
    }

    fn addr(&self) -> usize {
        self as *const _ as usize
    }

    pub fn wait<'a, T>(&self, guard: McMutexGuard<'a, T>) -> McMutexGuard<'a, T> {
        match ctx() {
            Some((exec, me)) => {
                let m_addr = guard.lock.addr();
                let lock = guard.defuse();
                exec.cv_wait(me, self.addr(), m_addr, false);
                let g = lock
                    .inner
                    .try_lock()
                    .expect("scheduler-held mc mutex is uncontended");
                McMutexGuard {
                    lock,
                    inner: Some(g),
                    controlled: true,
                }
            }
            None => {
                let mut guard = guard;
                let lock = guard.lock;
                let g = guard.inner.take().expect("guard holds the std guard");
                drop(guard); // inert: std guard taken, not controlled
                let g = self.inner.wait(g).unwrap_or_else(|e| e.into_inner());
                McMutexGuard {
                    lock,
                    inner: Some(g),
                    controlled: false,
                }
            }
        }
    }

    /// Returns `(guard, timed_out)`.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: McMutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> (McMutexGuard<'a, T>, bool) {
        match ctx() {
            Some((exec, me)) => {
                let m_addr = guard.lock.addr();
                let lock = guard.defuse();
                let timed_out = exec.cv_wait(me, self.addr(), m_addr, true);
                let g = lock
                    .inner
                    .try_lock()
                    .expect("scheduler-held mc mutex is uncontended");
                (
                    McMutexGuard {
                        lock,
                        inner: Some(g),
                        controlled: true,
                    },
                    timed_out,
                )
            }
            None => {
                let mut guard = guard;
                let lock = guard.lock;
                let g = guard.inner.take().expect("guard holds the std guard");
                drop(guard); // inert: std guard taken, not controlled
                let (g, to) = self
                    .inner
                    .wait_timeout(g, dur)
                    .unwrap_or_else(|e| e.into_inner());
                (
                    McMutexGuard {
                        lock,
                        inner: Some(g),
                        controlled: false,
                    },
                    to.timed_out(),
                )
            }
        }
    }

    pub fn notify_one(&self) {
        match ctx() {
            Some((exec, me)) => exec.cv_notify(me, self.addr(), false),
            None => self.inner.notify_one(),
        }
    }

    pub fn notify_all(&self) {
        match ctx() {
            Some((exec, me)) => exec.cv_notify(me, self.addr(), true),
            None => self.inner.notify_all(),
        }
    }
}

/// Shim for `std::hint::spin_loop`. Under control the thread parks until
/// some other thread performs a store — spinning on an unchanged value
/// would otherwise make the schedule tree unbounded.
pub fn spin_loop() {
    match ctx() {
        Some((exec, me)) => exec.spin(me),
        None => std::hint::spin_loop(),
    }
}

enum HandleInner<T> {
    Controlled {
        exec: Arc<Execution>,
        tid: usize,
        result: Arc<StdMutex<Option<T>>>,
    },
    Native(std::thread::JoinHandle<T>),
}

/// Join handle for [`spawn`].
pub struct McJoinHandle<T> {
    inner: HandleInner<T>,
}

impl<T> McJoinHandle<T> {
    /// Scheduler-aware join. If the joined thread panicked, the
    /// execution has already failed and this unwinds the joiner too.
    pub fn join(self) -> T {
        match self.inner {
            HandleInner::Controlled { exec, tid, result } => {
                let me = ctx()
                    .expect("controlled handle joined outside its execution")
                    .1;
                exec.join_thread(me, tid);
                match result.lock().unwrap_or_else(|e| e.into_inner()).take() {
                    Some(v) => v,
                    // The child panicked: the failure is recorded, the
                    // execution is aborting — unwind quietly.
                    None => std::panic::panic_any(McAbort),
                }
            }
            HandleInner::Native(h) => match h.join() {
                Ok(v) => v,
                Err(p) => std::panic::resume_unwind(p),
            },
        }
    }
}

/// Spawn a model thread. Inside an execution the child is registered
/// with the scheduler and parks *before running any user code*, so no
/// instruction escapes the controlled interleaving; outside one this is
/// `std::thread::spawn`.
pub fn spawn<T, F>(f: F) -> McJoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    match ctx() {
        Some((exec, _me)) => {
            let tid = exec.register_thread();
            let result: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
            let (exec2, result2) = (exec.clone(), result.clone());
            let os = std::thread::Builder::new()
                .name(format!("hts-mc-t{tid}"))
                .spawn(move || {
                    if !exec2.wait_for_start(tid) {
                        return; // aborted before first instruction
                    }
                    set_ctx(Some((exec2.clone(), tid)));
                    let out = catch_unwind(AssertUnwindSafe(f));
                    set_ctx(None);
                    match out {
                        Ok(v) => {
                            *result2.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                            exec2.finish_thread(tid, None);
                        }
                        Err(p) => {
                            let msg = if p.downcast_ref::<McAbort>().is_some() {
                                None
                            } else {
                                Some(payload_msg(p))
                            };
                            exec2.finish_thread(tid, msg);
                        }
                    }
                })
                .expect("spawn model thread");
            exec.store_handle(os);
            McJoinHandle {
                inner: HandleInner::Controlled { exec, tid, result },
            }
        }
        None => McJoinHandle {
            inner: HandleInner::Native(std::thread::spawn(f)),
        },
    }
}
