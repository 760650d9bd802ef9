// Package gochecktest is a golden fixture for the gocheck analyzer. Its
// synthetic import path ends in /blockserve so the concurrent-layer scoping
// applies. It exercises both rules: goroutine join/drain paths and
// chan-struct{} semaphore balance over the CFG.
package gochecktest

import (
	"errors"
	"sync"
)

type srv struct {
	wg  sync.WaitGroup
	sem chan struct{}
}

func (s *srv) handle() {}

func (s *srv) run() { defer s.wg.Done() }

// ---- Rule 1: join/drain ----

// spawnJoined is the canonical pattern: Add dominates the spawn, the body
// Dones the same WaitGroup, Wait joins.
func (s *srv) spawnJoined() {
	s.wg.Add(1)
	go s.run()
	s.wg.Wait()
}

// spawnLoose has no lifecycle at all.
func (s *srv) spawnLoose() {
	go func() { // want `goroutine has no join or drain path`
		s.handle()
	}()
}

func spin() {}

// spawnsNamedLoose resolves the callee one level deep and still finds nothing.
func spawnsNamedLoose() {
	go spin() // want `goroutine has no join or drain path`
}

// acceptLoose is a server's accept path with its WaitGroup pair dropped:
// the method spawned has no Done, so the connection goroutine outlives the
// server's Wait.
func (s *srv) acceptLoose(conn int) {
	go s.serveConn(conn) // want `goroutine has no join or drain path`
}

func (s *srv) serveConn(conn int) {
	_ = conn
	s.handle()
}

// addOnBranch: the Add does not dominate the spawn — on the !b path, Wait
// can return before the goroutine has run.
func (s *srv) addOnBranch(b bool) {
	if b {
		s.wg.Add(1)
	}
	go func() { // want `goroutine calls wg\.Done but no matching Add dominates this spawn`
		defer s.wg.Done()
		s.handle()
	}()
	s.wg.Wait()
}

// fanOut drains: every spawned body sends on a channel this function
// receives from, so the collect loop is the join.
func fanOut(parts [][]byte) int {
	results := make(chan int)
	for _, p := range parts {
		p := p
		go func() { results <- len(p) }()
	}
	total := 0
	for range parts {
		total += <-results
	}
	return total
}

// ---- Rule 2: semaphore balance ----

// admitBalanced releases through a deferred receive: clean on every path.
func (s *srv) admitBalanced() {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	s.handle()
}

// admitAsync hands the slot to the goroutine, which releases it when done.
func (s *srv) admitAsync() {
	s.sem <- struct{}{}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.handle()
		<-s.sem
	}()
}

// leakOnError releases only on the success path.
func (s *srv) leakOnError(fail bool) error {
	s.sem <- struct{}{} // want `semaphore slot on sem is not released on every path to return`
	if fail {
		return errors.New("handler failed")
	}
	s.handle()
	<-s.sem
	return nil
}

// loopLeak acquires a fresh slot every iteration and never releases one.
func (s *srv) loopLeak(n int) {
	for i := 0; i < n; i++ {
		s.sem <- struct{}{} // want `semaphore slot on sem is acquired each loop iteration without a release`
	}
}

// loopBalanced releases within the iteration: clean.
func (s *srv) loopBalanced(n int) {
	for i := 0; i < n; i++ {
		s.sem <- struct{}{}
		s.handle()
		<-s.sem
	}
}

// handoff's release lives in another function entirely — the justified
// suppression is the sanctioned way to record that.
func (s *srv) handoff() {
	//lint:ignore gocheck the completion side receives this slot back
	s.sem <- struct{}{}
}
