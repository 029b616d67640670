package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
)

// pageSize is the blob page size of the real-clock workloads: 64 KiB,
// the paper's page size.
const pageSize = 64 << 10

// poolPages is how many distinct page images the generator draws from.
// Each written page is one of them, chosen by the seeded generator, so
// a page landing at the wrong offset or version fails the byte compare
// with probability 255/256 while the inputs cost only 16 MiB.
const poolPages = 256

// pool holds the distinct page images every workload writes.
type pool struct {
	pages [][]byte
}

// newPool fills poolPages pages of size bytes from the seed.
func newPool(seed uint64, size int) *pool {
	p := &pool{pages: make([][]byte, poolPages)}
	x := seed*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for i := range p.pages {
		pg := make([]byte, size)
		for j := 0; j+8 <= size; j += 8 {
			// splitmix64
			x += 0x9E3779B97F4A7C15
			z := x
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			binary.LittleEndian.PutUint64(pg[j:], z^(z>>31))
		}
		p.pages[i] = pg
	}
	return p
}

// newRand returns a generator for one named stream of a seed, so each
// worker draws its own reproducible sequence.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed*1_000_003 + stream*7919 + 1)))
}

// draw picks n page images.
func (p *pool) draw(r *rand.Rand, n int) []uint16 {
	ids := make([]uint16, n)
	for i := range ids {
		ids[i] = uint16(r.Intn(len(p.pages)))
	}
	return ids
}

// fill copies the page images ids into buf, page after page.
func (p *pool) fill(buf []byte, ids []uint16) {
	ps := len(p.pages[0])
	for i, id := range ids {
		copy(buf[i*ps:(i+1)*ps], p.pages[id])
	}
}

// check compares buf, read from page index first on, with the page
// images the model expects there.
func (p *pool) check(buf []byte, first int, want []uint16) error {
	ps := len(p.pages[0])
	for i := 0; i*ps < len(buf); i++ {
		if !bytes.Equal(buf[i*ps:(i+1)*ps], p.pages[want[first+i]]) {
			return fmt.Errorf("page %d differs from the model (image %d)", first+i, want[first+i])
		}
	}
	return nil
}

// versionModel maps each version of a blob to page images: for a blob
// whose size stays fixed after the preload, the image at every page
// index; for append_durable, the images the version appended.
type versionModel struct {
	mu   sync.RWMutex
	maps map[uint64][]uint16
}

func newVersionModel() *versionModel { return &versionModel{maps: make(map[uint64][]uint16)} }

func (m *versionModel) set(v uint64, pages []uint16) {
	m.mu.Lock()
	m.maps[v] = pages
	m.mu.Unlock()
}

func (m *versionModel) get(v uint64) []uint16 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.maps[v]
}

// forgetBelow drops the maps of versions below v.
func (m *versionModel) forgetBelow(v uint64) {
	m.mu.Lock()
	for k := range m.maps {
		if k < v {
			delete(m.maps, k)
		}
	}
	m.mu.Unlock()
}

// overwrite returns a copy of base with the page images ids written at
// page index at.
func overwrite(base []uint16, at int, ids []uint16) []uint16 {
	next := append([]uint16(nil), base...)
	copy(next[at:], ids)
	return next
}
