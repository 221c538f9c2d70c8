package controlplane

// HTTP client for the control-plane API — the library behind
// `afex submit` and `afex status`, and the tests' way of driving a
// server without shelling out to curl.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client talks to a control-plane server.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the server at addr ("host:port" or a
// full http:// URL).
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{base: strings.TrimRight(addr, "/"), http: &http.Client{}}
}

// do sends one request and returns the response body, or — for any
// status but want — the error the server's {"error": ...} body carries.
func (c *Client) do(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode == want {
		return raw, err
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return nil, errors.New(e.Error)
	}
	return nil, fmt.Errorf("controlplane: server returned %s", resp.Status)
}

// doJSON is do with the body decoded into out.
func (c *Client) doJSON(method, path string, body []byte, want int, out any) error {
	raw, err := c.do(method, path, body, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// Submit posts a session spec and returns the new session's status.
func (c *Client) Submit(spec SessionSpec) (Status, error) {
	var st Status
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	return st, c.doJSON("POST", "/v1/sessions", body, http.StatusCreated, &st)
}

// Status fetches one session's status (store stats included).
func (c *Client) Status(id string) (Status, error) {
	var st Status
	return st, c.doJSON("GET", "/v1/sessions/"+id, nil, http.StatusOK, &st)
}

// List fetches every session's status.
func (c *Client) List() ([]Status, error) {
	var out []Status
	return out, c.doJSON("GET", "/v1/sessions", nil, http.StatusOK, &out)
}

// Stop requests a session to stop and returns its status.
func (c *Client) Stop(id string) (Status, error) {
	var st Status
	return st, c.doJSON("POST", "/v1/sessions/"+id+"/stop", nil, http.StatusOK, &st)
}

// Wait follows the session's event stream and returns the first status
// whose state is not running: the sealed session's, store stats
// included. A stream that ends before that is an error.
func (c *Client) Wait(id string) (Status, error) {
	resp, err := c.http.Get(c.base + "/v1/sessions/" + id + "/events")
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Status{}, fmt.Errorf("controlplane: session %s: server returned %s", id, resp.Status)
	}
	events := bufio.NewReader(resp.Body)
	for {
		line, err := events.ReadBytes('\n')
		if err != nil {
			return Status{}, fmt.Errorf("controlplane: session %s: event stream ended before it sealed: %w", id, err)
		}
		var st Status
		if data, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
			if err := json.Unmarshal(data, &st); err != nil || st.State != StateRunning {
				return st, err
			}
		}
	}
}

// Journal fetches the session's raw journal bytes.
func (c *Client) Journal(id string) ([]byte, error) {
	return c.do("GET", "/v1/sessions/"+id+"/journal", nil, http.StatusOK)
}

// Report fetches the sealed session's top-K report text.
func (c *Client) Report(id string, top int) (string, error) {
	path := "/v1/sessions/" + id + "/report"
	if top > 0 {
		path += fmt.Sprintf("?top=%d", top)
	}
	raw, err := c.do("GET", path, nil, http.StatusOK)
	return string(raw), err
}

// Metrics fetches the /metrics exposition text.
func (c *Client) Metrics() (string, error) {
	raw, err := c.do("GET", "/metrics", nil, http.StatusOK)
	return string(raw), err
}
