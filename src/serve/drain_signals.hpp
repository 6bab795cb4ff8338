// serve::DrainSignalsBlocked — scoped block of the daemon's drain signals.
//
// dmfb_serve drains on SIGTERM/SIGINT by interrupting the reader's blocking
// read, so only the reader thread may take them. Threads inherit their
// creator's mask: a worker or store writer spawned under this guard never
// takes a drain signal.
#pragma once

#include <pthread.h>
#include <signal.h>

namespace dmfb::serve {

/// Blocks SIGTERM and SIGINT in the calling thread for its lifetime.
class DrainSignalsBlocked {
 public:
  DrainSignalsBlocked() {
    sigset_t drain_signals;
    sigemptyset(&drain_signals);
    sigaddset(&drain_signals, SIGTERM);
    sigaddset(&drain_signals, SIGINT);
    pthread_sigmask(SIG_BLOCK, &drain_signals, &saved_);
  }
  ~DrainSignalsBlocked() { pthread_sigmask(SIG_SETMASK, &saved_, nullptr); }
  DrainSignalsBlocked(const DrainSignalsBlocked&) = delete;
  DrainSignalsBlocked& operator=(const DrainSignalsBlocked&) = delete;

 private:
  sigset_t saved_;
};

}  // namespace dmfb::serve
