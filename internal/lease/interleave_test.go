package lease

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ropus/internal/faultinject"
)

var errFault = errors.New("injected")

// toggles is a test injector whose faults are switched on per operation.
type toggles struct {
	expire, acquireErr, renewErr bool
	stealDelay                   time.Duration
}

func (f *toggles) Hit(point, _ string) faultinject.Outcome {
	switch {
	case point == "lease.acquire" && f.acquireErr,
		point == "lease.renew" && f.renewErr,
		point == "lease.expire" && f.expire:
		return faultinject.Outcome{Err: errFault}
	case point == "lease.steal":
		return faultinject.Outcome{Delay: f.stealDelay}
	}
	return faultinject.Outcome{}
}

// leaseOps is the operation alphabet of the interleaving test: every
// keeper can claim, steal (a forced lease.expire), fail to acquire
// (lease.acquire), renew, fail to renew (lease.renew) and release.
var leaseOps = []string{"claim", "steal", "acquire-fails", "renew", "renew-fails", "release"}

// TestLeaseInterleavings enumerates every three-step order of the
// operation alphabet across three keepers on one lease (up to renaming
// the keepers, which are interchangeable) and checks the
// protocol invariants after each step: issued epochs strictly increase,
// at most one lease object still owns the path, the on-disk record names
// that owner, and a holder that has lost the lease never writes again.
func TestLeaseInterleavings(t *testing.T) {
	const keepers, steps = 3, 3
	n := keepers * len(leaseOps)
	total := 1
	for i := 0; i < steps; i++ {
		total *= n
	}
	dir := t.TempDir()
	steals := 0
	for seq := 0; seq < total; seq++ {
		order := make([]int, steps)
		for i, v := 0, seq; i < steps; i, v = i+1, v/n {
			order[i] = v % n
		}
		if !canonicalKeepers(order) {
			continue
		}
		steals += runInterleaving(t, dir, keepers, order)
		if t.Failed() {
			return
		}
	}
	if steals == 0 {
		t.Fatal("no interleaving exercised a steal")
	}
}

// canonicalKeepers reports whether keepers first act in index order
// (k0 before k1 before k2), which picks one order from each class of
// orders that differ only by keeper names.
func canonicalKeepers(order []int) bool {
	next := 0
	for _, op := range order {
		k := op / len(leaseOps)
		if k > next {
			return false
		}
		if k == next {
			next++
		}
	}
	return true
}

// runInterleaving plays one operation order on a fresh lease in dir,
// returns how many steals succeeded, and empties dir again.
func runInterleaving(t *testing.T, dir string, keepers int, order []int) int {
	faults := make([]*toggles, keepers)
	ks := make([]*Keeper, keepers)
	for i := range ks {
		faults[i] = &toggles{}
		ks[i] = &Keeper{Dir: dir, Instance: fmt.Sprintf("k%d", i), TTL: time.Minute, Inject: faults[i]}
	}
	held := make([]*Lease, keepers)
	var all []*Lease // every lease ever granted, zombies included
	lost := map[*Lease]bool{}
	var maxEpoch uint64
	steals := 0
	var trail []string
	for _, op := range order {
		i, name := op/len(leaseOps), leaseOps[op%len(leaseOps)]
		trail = append(trail, fmt.Sprintf("k%d:%s", i, name))
		f := faults[i]
		*f = toggles{}
		switch name {
		case "claim", "steal", "acquire-fails":
			f.expire = name == "steal"
			f.acquireErr = name == "acquire-fails"
			l, err := ks[i].Acquire("job")
			if err != nil {
				if !errors.Is(err, ErrHeld) && !errors.Is(err, errFault) {
					t.Fatalf("%v: acquire: %v", trail, err)
				}
				if name == "acquire-fails" && !errors.Is(err, errFault) {
					t.Fatalf("%v: lease.acquire fault not surfaced: %v", trail, err)
				}
				break
			}
			if name == "acquire-fails" {
				t.Fatalf("%v: acquire succeeded through a lease.acquire fault", trail)
			}
			if l.Epoch() <= maxEpoch {
				t.Fatalf("%v: epoch %d issued after epoch %d", trail, l.Epoch(), maxEpoch)
			}
			maxEpoch = l.Epoch()
			if l.Stolen() {
				steals++
			}
			held[i] = l
			all = append(all, l)
		case "renew", "renew-fails":
			if held[i] == nil {
				continue
			}
			f.renewErr = name == "renew-fails"
			wasLost := lost[held[i]]
			before, _ := os.ReadFile(ks[i].path("job"))
			if err := held[i].Renew(); err != nil {
				if !errors.Is(err, ErrLost) {
					t.Fatalf("%v: renew: %v", trail, err)
				}
				lost[held[i]] = true
			}
			if after, _ := os.ReadFile(ks[i].path("job")); wasLost && !bytes.Equal(before, after) {
				t.Fatalf("%v: a lost holder's renew rewrote the lease", trail)
			}
		case "release":
			if held[i] == nil {
				continue
			}
			wasLost := lost[held[i]]
			before, _ := os.ReadFile(ks[i].path("job"))
			if err := held[i].Release(); err != nil {
				t.Fatalf("%v: release: %v", trail, err)
			}
			lost[held[i]] = true
			if wasLost {
				after, _ := os.ReadFile(ks[i].path("job"))
				if !bytes.Equal(before, after) {
					t.Fatalf("%v: a lost holder's release rewrote the lease", trail)
				}
			}
			held[i] = nil
		}
		*f = toggles{}

		owners := 0
		var owner *Lease
		for _, l := range all {
			l.mu.Lock()
			owns := l.f != nil && !l.lost && l.ownsLocked()
			l.mu.Unlock()
			if owns {
				owners++
				owner = l
			}
		}
		if owners > 1 {
			t.Fatalf("%v: %d live holders", trail, owners)
		}
		info, status := ks[0].Read("job")
		if owner != nil && (status != StatusLive || info.Instance != owner.k.Instance || info.Epoch != owner.epoch) {
			t.Fatalf("%v: record %v %+v does not name holder %s epoch %d",
				trail, status, info, owner.k.Instance, owner.epoch)
		}
	}
	for _, l := range all {
		l.Release()
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		os.Remove(filepath.Join(dir, e.Name()))
	}
	return steals
}

// TestConcurrentStealsNeverReissueEpochs races keepers that repeatedly
// force-steal the same lease (lease.expire) with a lease.steal delay
// widening the window between the expiry decision and the takeover,
// then renew and release what they won. No epoch may be granted twice,
// and the final record carries the highest epoch granted.
func TestConcurrentStealsNeverReissueEpochs(t *testing.T) {
	dir := t.TempDir()
	const keepers, rounds = 4, 25
	var (
		mu      sync.Mutex
		granted = map[uint64]string{}
		maxEp   uint64
		wg      sync.WaitGroup
	)
	for i := 0; i < keepers; i++ {
		k := &Keeper{Dir: dir, Instance: fmt.Sprintf("k%d", i), TTL: time.Minute,
			Inject: &toggles{expire: true, stealDelay: time.Duration(i) * 100 * time.Microsecond}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				l, err := k.Acquire("job")
				if err != nil {
					if !errors.Is(err, ErrHeld) {
						t.Errorf("acquire: %v", err)
					}
					continue
				}
				mu.Lock()
				if prev, dup := granted[l.Epoch()]; dup {
					t.Errorf("epoch %d granted to %s and %s", l.Epoch(), prev, k.Instance)
				}
				granted[l.Epoch()] = k.Instance
				if l.Epoch() > maxEp {
					maxEp = l.Epoch()
				}
				mu.Unlock()
				if r%3 == 0 {
					l.Renew()
				}
				if r%2 == 0 {
					l.Release()
				}
			}
		}()
	}
	wg.Wait()
	if len(granted) == 0 {
		t.Fatal("no acquisition succeeded")
	}
	if info, _ := (&Keeper{Dir: dir, Instance: "observer"}).Read("job"); info.Epoch != maxEp {
		t.Errorf("final record epoch %d, highest granted %d", info.Epoch, maxEp)
	}
}
