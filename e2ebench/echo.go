package main

import (
	"net"
	"sync"
	"time"
)

// echoBaseline drives an in-process TCP echo server with the workload's
// connection count, burst size and lo rate, half of d closed loop and half
// open loop. Its figures move with the host, never with the program, so
// host drift shows apart from program change. It returns the open-loop p50
// (µs) and the closed-loop capacity (ops/s).
func echoBaseline(w *workload, conns int, d time.Duration, epoch time.Time) (p50, capacity float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				buf := make([]byte, 64<<10)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()
	var cs []*client
	defer func() {
		for _, c := range cs {
			c.close()
		}
		ln.Close()
		wg.Wait()
	}()
	for range conns {
		c, err := dial(ln.Addr().String(), &echoStream{}, w.burst)
		if err != nil {
			return 0, 0, err
		}
		cs = append(cs, c)
	}
	closed, err := closedLoop(cs, d/2, epoch, false)
	if err != nil {
		return 0, 0, err
	}
	open, err := openLoop(cs, w.loRate, d/2, epoch)
	if err != nil {
		return 0, 0, err
	}
	q, err := quantilesAt(open.lat, 0.50)
	if err != nil {
		return 0, 0, err
	}
	return q[0], closed.rate(), nil
}
