// Package client is the typed HTTP client for the campaign service
// (internal/server) — the interface the chaos and soak tests drive, and the
// reference for anyone scripting the service. It knows the service's
// backpressure protocol: SubmitWait honours 429/503 Retry-After hints with
// capped retries, so a shedding or draining server slows clients down
// instead of failing them.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"afterimage/internal/server"
)

// Client talks to one campaign service.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
	// Correlation, when set, rides every Submit as the X-Campaign-Id header:
	// the server threads it through all layers and the campaign's span tree
	// carries it. Empty lets the server mint one (echoed on the response).
	Correlation string
	// MaxRetryWait caps how long SubmitWait sleeps on any one Retry-After
	// hint (default 5s). A misconfigured or hostile server can send
	// arbitrarily large hints; without a cap one bad header parks the client
	// for hours. Sleeps remain context-cancellable regardless.
	MaxRetryWait time.Duration
}

// New builds a client for the service at base.
func New(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Result is one submission outcome.
type Result struct {
	// Key is the campaign's content address (from X-Afterimage-Key).
	Key string
	// Source is hit | miss | join | degraded (from X-Afterimage-Cache).
	// "degraded" means the result was computed but its cache write was shed
	// (disk fault); the bytes are identical to a cached run's.
	Source string
	// CorrelationID is the campaign correlation ID the server echoed (from
	// X-Campaign-Id) — the client's own if it sent one, minted otherwise.
	CorrelationID string
	// Body is the SweepResult JSON, byte-for-byte as the server stores it.
	Body []byte
}

// RetryableError is a 429/503/504 response: the server asked the client to
// come back later.
type RetryableError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

// Error formats the backpressure response.
func (e *RetryableError) Error() string {
	return fmt.Sprintf("server busy (%d, retry after %s): %s", e.Status, e.RetryAfter, e.Msg)
}

// Submit posts one campaign spec and returns the result. Backpressure
// (429/503/504) surfaces as *RetryableError; validation failures and other
// errors are terminal.
func (c *Client) Submit(ctx context.Context, spec server.CampaignSpec) (*Result, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("client: encode spec: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/campaigns", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.Correlation != "" {
		req.Header.Set(server.HeaderCampaignID, c.Correlation)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: read response: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return &Result{
			Key:           resp.Header.Get(server.HeaderKey),
			Source:        resp.Header.Get(server.HeaderCache),
			CorrelationID: resp.Header.Get(server.HeaderCampaignID),
			Body:          body,
		}, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return nil, &RetryableError{
			Status:     resp.StatusCode,
			Msg:        errMsg(body),
			RetryAfter: retryAfter(resp),
		}
	default:
		return nil, fmt.Errorf("client: %s: %s", resp.Status, errMsg(body))
	}
}

// SubmitWait submits with retries: every *RetryableError is honoured by
// sleeping the server's Retry-After hint (clamped to [50ms, MaxRetryWait])
// and resubmitting, until ctx expires or attempts run out. Because
// interrupted campaigns checkpoint, each retry resumes prior progress rather
// than restarting.
func (c *Client) SubmitWait(ctx context.Context, spec server.CampaignSpec, attempts int) (*Result, error) {
	if attempts <= 0 {
		attempts = 10
	}
	maxWait := c.MaxRetryWait
	if maxWait <= 0 {
		maxWait = 5 * time.Second
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		res, err := c.Submit(ctx, spec)
		if err == nil {
			return res, nil
		}
		lastErr = err
		var re *RetryableError
		if !isRetryable(err, &re) {
			return nil, err
		}
		wait := re.RetryAfter
		if wait < 50*time.Millisecond {
			wait = 50 * time.Millisecond
		}
		if wait > maxWait {
			wait = maxWait
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, fmt.Errorf("client: %w (last: %v)", ctx.Err(), lastErr)
		case <-t.C:
		}
	}
	return nil, fmt.Errorf("client: retries exhausted: %w", lastErr)
}

// isRetryable matches *RetryableError and transport-level failures (a
// draining listener may refuse the connection between Drain and restart).
func isRetryable(err error, out **RetryableError) bool {
	var re *RetryableError
	if errors.As(err, &re) {
		*out = re
		return true
	}
	// Connection errors during restart windows: retry with a default hint.
	if strings.Contains(err.Error(), "connection refused") ||
		strings.Contains(err.Error(), "EOF") {
		*out = &RetryableError{Status: 0, Msg: err.Error(), RetryAfter: 100 * time.Millisecond}
		return true
	}
	return false
}

// Get fetches a cached result by key: (result, true, nil) on a hit,
// (nil, false, nil) when absent or still running.
func (c *Client) Get(ctx context.Context, key string) (*Result, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/campaigns/"+key, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return &Result{Key: key, Source: resp.Header.Get(server.HeaderCache), Body: body}, true, nil
	case http.StatusAccepted, http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("client: %s: %s", resp.Status, errMsg(body))
	}
}

// Events streams the campaign's ProgressEvents, invoking fn per event until
// the stream ends, fn returns false, or ctx expires.
func (c *Client) Events(ctx context.Context, key string, fn func(server.ProgressEvent) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/campaigns/"+key+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("client: events: %s: %s", resp.Status, errMsg(body))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev server.ProgressEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			return fmt.Errorf("client: events: bad frame: %w", err)
		}
		if !fn(ev) {
			return nil
		}
	}
	return sc.Err()
}

// Prometheus fetches /metrics, the Prometheus 0.0.4 text exposition.
func (c *Client) Prometheus(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// Trace fetches a completed campaign's span record (one JSONL line) from
// GET /v1/campaigns/{key}/trace. (nil, false, nil) means the server retains
// no trace for the key — never completed here, or evicted.
func (c *Client) Trace(ctx context.Context, key string) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/campaigns/"+key+"/trace", nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return body, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("client: trace: %s: %s", resp.Status, errMsg(body))
	}
}

// WaitReady polls /healthz until the server answers or ctx expires — the
// restart-detection primitive the soak tests use.
func (c *Client) WaitReady(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := c.http().Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		t := time.NewTimer(25 * time.Millisecond)
		select {
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("client: server not ready: %w", ctx.Err())
		case <-t.C:
		}
	}
}

func retryAfter(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return time.Second
}

func errMsg(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}
