package telemetry

// A small leveled, structured logger for the CLIs and the campaign
// orchestrator, replacing raw fmt.Fprintln(os.Stderr, ...) progress and
// warning lines. Lines are one-per-record, human-first:
//
//	15:04:05.000 INFO  campaign started campaign=runs specs=24 jobs=4
//
// Fields are key=value pairs appended in the order given, so a line is
// greppable by campaign or run ID without a JSON parser. The logger is
// not a hot-path component — it serializes writes under a mutex.

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// Level orders log severities.
type Level int8

const (
	LevelDebug Level = iota - 1
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the fixed-width level tag.
func (l Level) String() string {
	switch {
	case l <= LevelDebug:
		return "DEBUG"
	case l == LevelInfo:
		return "INFO "
	case l == LevelWarn:
		return "WARN "
	default:
		return "ERROR"
	}
}

// ParseLevel resolves the -quiet/-v flag pair into a minimum level:
// quiet wins (errors only), -v lowers to debug, default is info.
func ParseLevel(quiet, verbose bool) Level {
	switch {
	case quiet:
		return LevelError
	case verbose:
		return LevelDebug
	default:
		return LevelInfo
	}
}

// Logger writes leveled, structured lines. A nil *Logger discards
// everything, so optional logging needs no conditionals.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	min Level
}

// NewLogger returns a logger writing records at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{w: w, min: min}
}

// defaultLogger serves package-level helpers; stderr at info.
var (
	defaultLoggerMu sync.Mutex
	defaultLogger   = NewLogger(os.Stderr, LevelInfo)
)

// SetDefault replaces the process-wide logger (used by package-level
// L()) — the CLIs call this once after flag parsing.
func SetDefault(l *Logger) {
	defaultLoggerMu.Lock()
	defaultLogger = l
	defaultLoggerMu.Unlock()
}

// L returns the process-wide logger.
func L() *Logger {
	defaultLoggerMu.Lock()
	defer defaultLoggerMu.Unlock()
	return defaultLogger
}

func appendFields(dst []string, kv []any) []string {
	for i := 0; i+1 < len(kv); i += 2 {
		dst = append(dst, fmt.Sprintf("%v=%v", kv[i], kv[i+1]))
	}
	if len(kv)%2 == 1 {
		dst = append(dst, fmt.Sprintf("DANGLING=%v", kv[len(kv)-1]))
	}
	return dst
}

// log writes one record if level clears the threshold.
func (l *Logger) log(level Level, msg string, kv []any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if level < l.min {
		return
	}
	var b strings.Builder
	b.WriteString(time.Now().Format("15:04:05.000"))
	b.WriteByte(' ')
	b.WriteString(level.String())
	b.WriteByte(' ')
	b.WriteString(msg)
	for _, f := range appendFields(nil, kv) {
		b.WriteByte(' ')
		b.WriteString(f)
	}
	b.WriteByte('\n')
	io.WriteString(l.w, b.String()) //nolint:errcheck // best-effort, like log
}

// Debug logs at debug level with key=value pairs.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at info level with key=value pairs.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at warn level with key=value pairs.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at error level with key=value pairs.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }
