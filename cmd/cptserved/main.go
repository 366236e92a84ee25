// Command cptserved is the long-running traffic-generation daemon: it
// loads CPT-GPT models once at startup, then runs scenarios on demand via
// an HTTP management API, pacing event emission against wall-clock time
// and exposing live telemetry. See docs/OPERATIONS.md for the API and a
// worked walkthrough.
//
// Usage:
//
//	cptserved [-addr 127.0.0.1:8080] [-preload model.cptgpt]... \
//	          [-tmp DIR] [-parallelism N] [-keep N] \
//	          [-journal-dir DIR] [-recover resume] \
//	          [-ckpt-events N] [-ckpt-interval D] \
//	          [-max-active-runs N] [-max-total-ues N] [-max-spill-bytes N] \
//	          [-log-level info] [-pprof]
//
// The daemon logs its lifecycle (listening, runs, model loads, shutdown)
// to stderr as log/slog text lines at -log-level debug|info|warn|error|off
// (either case; any other value exits 2).
//
// SIGINT/SIGTERM stop every run with a clean drain (sinks flush their
// last released event) before the process exits. With -journal-dir set,
// runs are durable: a crashed daemon restarted with -recover=resume picks
// interrupted runs back up from their last checkpoint (see
// docs/OPERATIONS.md, "Crash recovery"). Journal records are written
// through as they are appended and fsynced within 100 ms.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cptgpt/internal/mcn"
	"cptgpt/internal/served"
)

// logLevels maps the -log-level values to slog levels; off is above every
// level the daemon logs at.
var logLevels = map[string]slog.Level{
	"debug": slog.LevelDebug,
	"info":  slog.LevelInfo,
	"warn":  slog.LevelWarn,
	"error": slog.LevelError,
	"off":   slog.LevelError + 1,
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	tmp := flag.String("tmp", "", "spill directory for run files (default: system temp dir)")
	parallelism := flag.Int("parallelism", 0, "default generation worker bound per run (0 = engine default)")
	keep := flag.Int("keep", 0, "finished runs retained before eviction (0 = default)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	logLevel := flag.String("log-level", "info", "log verbosity: debug|info|warn|error|off")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	journalDir := flag.String("journal-dir", "", "write-ahead run journal directory (empty = durable runs off)")
	recoverMode := flag.String("recover", "resume", "disposition of interrupted journals at startup: resume|fail|ignore")
	ckptEvents := flag.Int("ckpt-events", 0, "events between journal checkpoints (0 = default)")
	ckptInterval := flag.Duration("ckpt-interval", 0, "wall-time bound between journal checkpoints (0 = default)")
	maxActiveRuns := flag.Int("max-active-runs", 0, "admission: concurrent active runs (0 = unlimited)")
	maxTotalUEs := flag.Int64("max-total-ues", 0, "admission: summed UE population across active runs (0 = unlimited)")
	maxSpillBytes := flag.Int64("max-spill-bytes", 0, "admission: daemon-wide live spill-disk bytes (0 = unlimited)")
	var preload []string
	flag.Func("preload", "model file to load at startup (repeatable)", func(p string) error {
		preload = append(preload, p)
		return nil
	})
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "cptserved: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	lvl, ok := logLevels[strings.ToLower(*logLevel)]
	if !ok {
		fmt.Fprintf(os.Stderr, "cptserved: unknown -log-level %q (want debug|info|warn|error|off)\n", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	s := served.New(served.Options{
		TempDir:            *tmp,
		Parallelism:        *parallelism,
		MaxFinishedRuns:    *keep,
		MCN:                mcn.DefaultConfig(),
		Log:                logger,
		EnablePprof:        *enablePprof,
		JournalDir:         *journalDir,
		Recover:            *recoverMode,
		CheckpointEvents:   *ckptEvents,
		CheckpointInterval: *ckptInterval,
		MaxActiveRuns:      *maxActiveRuns,
		MaxTotalUEs:        *maxTotalUEs,
		MaxSpillBytes:      *maxSpillBytes,
	})
	for _, p := range preload {
		if err := s.PreloadModel(p); err != nil {
			logger.Error("preload failed", "path", p, "err", err)
			os.Exit(1)
		}
	}
	// Recovery runs after preloads (resumed cptgpt runs hit a warm cache)
	// and before the listener opens, so clients never observe a half-
	// recovered registry.
	if err := s.Recover(); err != nil {
		logger.Error("journal recovery failed", "err", err)
		os.Exit(1)
	}

	srv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("cptserved listening", "addr", *addr, "pprof", *enablePprof)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case got := <-sig:
		logger.Info("signal received, draining runs", "signal", got.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		logger.Warn("drain incomplete", "err", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	logger.Info("cptserved stopped")
}
