// Package kvstore is an embedded durable key-value store, the substitute
// for the Berkeley DB instance the paper uses to persist the Data Mapping
// Table on the CServers (§IV.A). It provides a hash-table store with a
// write-ahead log, crash recovery, snapshot compaction, synchronous or
// batched commits, and a per-key lock manager for multi-process metadata
// access.
package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Backend is the byte storage under a store: a write-ahead log that can be
// appended to and a snapshot file that can be atomically replaced.
type Backend interface {
	// ReadAll returns the full contents of the named file, or nil if it
	// does not exist.
	ReadAll(name string) ([]byte, error)
	// Append durably appends data to the named file, creating it if needed.
	Append(name string, data []byte) error
	// Replace atomically replaces the named file's contents.
	Replace(name string, data []byte) error
	// Remove deletes the named file; removing a missing file is not an
	// error.
	Remove(name string) error
}

// MemBackend is an in-memory Backend for tests and simulations. The zero
// value is ready to use.
type MemBackend struct {
	mu    sync.Mutex
	files map[string]*bytes.Buffer

	// FailAppends, when set, makes Append return an error — for fault
	// injection tests.
	FailAppends bool
}

var _ Backend = (*MemBackend)(nil)

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend { return &MemBackend{} }

// ReadAll implements Backend.
func (m *MemBackend) ReadAll(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, nil
	}
	out := make([]byte, f.Len())
	copy(out, f.Bytes())
	return out, nil
}

// Append implements Backend.
func (m *MemBackend) Append(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.FailAppends {
		return fmt.Errorf("kvstore: injected append failure on %q", name)
	}
	if m.files == nil {
		m.files = make(map[string]*bytes.Buffer)
	}
	f, ok := m.files[name]
	if !ok {
		f = &bytes.Buffer{}
		m.files[name] = f
	}
	_, err := f.Write(data)
	return err
}

// Replace implements Backend.
func (m *MemBackend) Replace(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files == nil {
		m.files = make(map[string]*bytes.Buffer)
	}
	m.files[name] = bytes.NewBuffer(append([]byte(nil), data...))
	return nil
}

// Remove implements Backend.
func (m *MemBackend) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

// Truncate chops the named file to n bytes — a crash-injection helper that
// simulates losing the tail of a write-ahead log.
func (m *MemBackend) Truncate(name string, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return
	}
	if n < 0 {
		n = 0
	}
	if n < f.Len() {
		b := f.Bytes()[:n]
		m.files[name] = bytes.NewBuffer(append([]byte(nil), b...))
	}
}

// DelayBackend wraps a Backend and sleeps before every Append, modeling
// the device-sync latency a durable commit pays on real storage (an fsync
// is tens of microseconds on flash, milliseconds on disk). The meta
// benchmarks use it to make group commit's sync amortization measurable:
// with a per-append sync cost, N concurrent committers sharing one
// leader's append approach N× the solo throughput.
type DelayBackend struct {
	Backend
	// Delay is the simulated sync latency added to every Append.
	Delay time.Duration
}

// NewDelayBackend wraps inner with a per-append sync delay.
func NewDelayBackend(inner Backend, delay time.Duration) *DelayBackend {
	return &DelayBackend{Backend: inner, Delay: delay}
}

// Append implements Backend, paying the sync delay first.
func (d *DelayBackend) Append(name string, data []byte) error {
	if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
	return d.Backend.Append(name, data)
}

// DirBackend stores files under an OS directory. Every mutation is
// durable when it returns: Append syncs the file, Replace syncs the new
// contents before renaming them into place, and Replace and Remove sync
// the directory so the rename or unlink itself survives a power cut.
type DirBackend struct {
	dir string
}

var _ Backend = (*DirBackend)(nil)

// NewDirBackend returns a backend rooted at dir, creating it if needed.
func NewDirBackend(dir string) (*DirBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: create backend dir: %w", err)
	}
	return &DirBackend{dir: dir}, nil
}

// ReadAll implements Backend.
func (d *DirBackend) ReadAll(name string) ([]byte, error) {
	data, err := os.ReadFile(d.path(name))
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}

// Append implements Backend.
func (d *DirBackend) Append(name string, data []byte) error {
	if err := writeSynced(d.path(name), os.O_APPEND, data); err != nil {
		return fmt.Errorf("kvstore: append wal: %w", err)
	}
	return nil
}

// Replace implements Backend.
func (d *DirBackend) Replace(name string, data []byte) error {
	tmp := d.path(name) + ".tmp"
	if err := writeSynced(tmp, os.O_TRUNC, data); err != nil {
		return fmt.Errorf("kvstore: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, d.path(name)); err != nil {
		return fmt.Errorf("kvstore: replace snapshot: %w", err)
	}
	return d.syncDir()
}

// Remove implements Backend.
func (d *DirBackend) Remove(name string) error {
	err := os.Remove(d.path(name))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	return d.syncDir()
}

// writeSynced writes data to path, opened with flag (plus create and
// write-only), and syncs the file before closing it.
func writeSynced(path string, flag int, data []byte) error {
	f, err := os.OpenFile(path, flag|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir makes the directory's entries — a rename or an unlink — durable.
func (d *DirBackend) syncDir() error {
	f, err := os.Open(d.dir)
	if err != nil {
		return fmt.Errorf("kvstore: open backend dir: %w", err)
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("kvstore: sync backend dir: %w", err)
	}
	return nil
}

func (d *DirBackend) path(name string) string { return filepath.Join(d.dir, name) }
