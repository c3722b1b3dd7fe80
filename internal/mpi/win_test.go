package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/rtscts"
	"repro/internal/transport/simnet"
	"repro/portals"
)

func TestWinPutGetFence(t *testing.T) {
	w := world(t, 3)
	err := w.Run(func(c *Comm) error {
		base := make([]byte, 64)
		for i := range base {
			base[i] = byte(c.Rank() * 100)
		}
		win, err := c.WinCreate(base)
		if err != nil {
			return err
		}
		// Everyone puts its rank tag into the next rank's window.
		next := (c.Rank() + 1) % c.Size()
		if err := win.Put(next, uint64(8*c.Rank()), []byte{byte(c.Rank() + 1)}); err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		// After the fence, the previous rank's put is visible locally.
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		if base[8*prev] != byte(prev+1) {
			return fmt.Errorf("rank %d: window[%d] = %d, want %d", c.Rank(), 8*prev, base[8*prev], prev+1)
		}
		// Gets read the neighbour's (unmodified) cells.
		buf := make([]byte, 4)
		if err := win.Get(next, 32, buf); err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		want := byte(next * 100)
		if !bytes.Equal(buf, []byte{want, want, want, want}) {
			return fmt.Errorf("rank %d: get = %v, want %d", c.Rank(), buf, want)
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinMultipleEpochs(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		base := make([]byte, 16)
		win, err := c.WinCreate(base)
		if err != nil {
			return err
		}
		peer := 1 - c.Rank()
		for epoch := 0; epoch < 5; epoch++ {
			if err := win.Put(peer, uint64(epoch), []byte{byte(10*c.Rank() + epoch)}); err != nil {
				return err
			}
			if err := win.Fence(); err != nil {
				return err
			}
			if base[epoch] != byte(10*peer+epoch) {
				return fmt.Errorf("epoch %d: window = %d", epoch, base[epoch])
			}
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinCoexistsWithP2P(t *testing.T) {
	// One-sided traffic and regular sends share the interface without
	// interfering (different portal indexes).
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		base := make([]byte, 8)
		win, err := c.WinCreate(base)
		if err != nil {
			return err
		}
		peer := 1 - c.Rank()
		if err := win.Put(peer, 0, []byte{0xEE}); err != nil {
			return err
		}
		// Interleave p2p traffic before the fence.
		msg := []byte{byte(c.Rank())}
		in := make([]byte, 1)
		if _, err := c.Sendrecv(msg, peer, 3, in, peer, 3); err != nil {
			return err
		}
		if in[0] != byte(peer) {
			return fmt.Errorf("p2p data wrong: %d", in[0])
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if base[0] != 0xEE {
			return fmt.Errorf("window byte = %d", base[0])
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinTwoWindows(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		a := make([]byte, 8)
		b := make([]byte, 8)
		winA, err := c.WinCreate(a)
		if err != nil {
			return err
		}
		winB, err := c.WinCreate(b)
		if err != nil {
			return err
		}
		peer := 1 - c.Rank()
		if err := winA.Put(peer, 0, []byte{0xAA}); err != nil {
			return err
		}
		if err := winB.Put(peer, 0, []byte{0xBB}); err != nil {
			return err
		}
		if err := winA.Fence(); err != nil {
			return err
		}
		if err := winB.Fence(); err != nil {
			return err
		}
		if a[0] != 0xAA || b[0] != 0xBB {
			return fmt.Errorf("windows mixed up: %x %x", a[0], b[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinBadTarget(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 8))
		if err != nil {
			return err
		}
		if err := win.Put(9, 0, []byte{1}); err == nil {
			return fmt.Errorf("put to out-of-range rank accepted")
		}
		if err := win.Get(-1, 0, nil); err == nil {
			return fmt.Errorf("get from out-of-range rank accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinCreateCollective(t *testing.T) {
	w := world(t, 4)
	err := w.Run(func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 4))
		if err != nil {
			return err
		}
		if err := win.Put((c.Rank()+1)%c.Size(), 0, []byte{1}); err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A window put above the fabric's eager limit is a rendezvous: its body is
// read out of data after Put has returned. So the contract is MPI_Put's —
// data stays untouched until the next Fence — and once Fence returns, data
// may be rewritten without the target seeing it, retransmissions included.
func TestWinRendezvousPutDataReusableAfterFence(t *testing.T) {
	sim := simnet.Config{MTU: 4096, LossRate: 0.05, Seed: 41}
	w := worldOn(t, portals.SimFabric(sim, rtscts.DefaultConfig()), 2, Config{})
	const size = 64 * 1024
	err := w.Run(func(c *Comm) error {
		base := make([]byte, size)
		win, err := c.WinCreate(base)
		if err != nil {
			return err
		}
		peer := 1 - c.Rank()
		data := make([]byte, size)
		for epoch := 0; epoch < 3; epoch++ {
			for i := range data {
				data[i] = byte(i*7 + epoch*31 + c.Rank())
			}
			if err := win.Put(peer, 0, data); err != nil {
				return err
			}
			if err := win.Fence(); err != nil {
				return err
			}
			for i := range data {
				data[i] = 0xEE
			}
			for i, got := range base {
				if want := byte(i*7 + epoch*31 + peer); got != want {
					return fmt.Errorf("rank %d epoch %d: window[%d] = %#x, want %#x", c.Rank(), epoch, i, got, want)
				}
			}
			// The peer's next epoch writes into base: check before it starts.
			if err := win.Fence(); err != nil {
				return err
			}
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}
