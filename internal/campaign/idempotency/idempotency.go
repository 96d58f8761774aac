// Package idempotency derives content-addressed keys for campaign jobs
// and cells and arbitrates duplicate submissions. A key is a pure
// function of a submission's canonical bytes (for task sets, the same
// dse.Canonical form that keys the result cache), so a retried or
// re-sent job — after a client timeout, a server crash, or a reordered
// JSON body — lands on the same key and is answered with the original
// job instead of being executed again.
package idempotency

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// Key returns the content-addressed key for a submission of the given
// kind: "<kind>:" + sha256(canonical). Two submissions with the same
// canonical bytes are the same job.
func Key(kind string, canonical []byte) string {
	sum := sha256.Sum256(canonical)
	var buf [96]byte // every kind in use fits: one allocation, the string
	return string(hex.AppendEncode(append(append(buf[:0], kind...), ':'), sum[:]))
}

// Registry maps idempotency keys to the job IDs that own them. Claims
// are atomic: of any number of concurrent submissions with the same key,
// exactly one wins and the rest observe the winner's job ID — the
// exactly-one-execution contract the race tests pin.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]string{}}
}

// Claim registers id as the owner of key if the key is unclaimed, and
// returns the owning ID plus whether the claim was a duplicate (the key
// was already owned by another job).
func (r *Registry) Claim(key, id string) (owner string, dup bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byKey[key]; ok {
		return existing, true
	}
	r.byKey[key] = id
	return id, false
}

// Lookup returns the job ID owning key, if any.
func (r *Registry) Lookup(key string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.byKey[key]
	return id, ok
}

// Forget releases a key — used when a claimed job fails permanently so a
// corrected resubmission is not answered with the failure forever.
func (r *Registry) Forget(key string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.byKey, key)
}

// Len returns the number of claimed keys.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byKey)
}
