(define eff-tag (make-continuation-prompt-tag 'eff))

(define (perform op arg)
  (call-with-composable-continuation
   (lambda (k)
     (abort-current-continuation eff-tag
       (lambda () (list op arg k))))
   eff-tag))

;; Deep handler: state threaded through the handler loop, writer counted.
;; The body's normal return is tagged 'done so operations and completion
;; come back through the same prompt.
(define (eff-handle st told thunk)
  (let ([r (call-with-continuation-prompt thunk eff-tag (lambda (t) (t)))])
    (cond
      [(eq? (car r) 'done) (list (cadr r) st told)]
      [(eq? (car r) 'get)
       (let ([k (caddr r)])
         (eff-handle st told (lambda () (k st))))]
      [(eq? (car r) 'put)
       (let ([k (caddr r)])
         (eff-handle (cadr r) told (lambda () (k 'ok))))]
      [else ; 'tell
       (let ([k (caddr r)])
         (eff-handle st (+ told 1) (lambda () (k 'ok))))])))

(define (eff-run st body)
  (eff-handle st 0 (lambda () (list 'done (body) #f))))

;; Counter loop: n rounds of get/put, telling every 16th round. Result is
;; (final-value final-state tells).
(define (eff-counter n)
  (eff-run 0
    (lambda ()
      (let loop ([i n])
        (if (zero? i)
            (perform 'get 0)
            (begin
              (perform 'put (+ 1 (perform 'get 0)))
              (when (zero? (modulo i 16)) (perform 'tell i))
              (loop (- i 1))))))))
